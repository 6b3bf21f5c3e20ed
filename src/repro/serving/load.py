"""Open- and closed-loop load generation for the serving plane.

The paper characterizes its online services (Nutch/Olio/Rubis) under
swept request *rates*; real traffic also has a *shape* -- diurnal tides,
flash crowds, heavy-tailed user sessions ("Benchmarking Big Data
Systems", arXiv:1506.01494, names realistic load curves and tail-latency
SLOs as the gap between micro-characterization and service
benchmarking).  This module is the traffic half of that study:

* :class:`LoadProfile` -- a frozen value object describing one load
  curve (shape, rate, duration, open vs closed loop) with a
  ``parse``/``str`` round-trip so it travels CLI flags and memo/cache
  keys, mirroring :class:`~repro.faults.plan.FaultPlan`.
* :func:`generate_stream` -- turns a profile into a timestamped arrival
  stream (times, request kinds drawn from the server's mix, per-request
  service variates), bit-identical for identical ``(seed, profile)``.
  The velocity model is the same exponential-gap machinery as
  :class:`~repro.datagen.stream.RateProfile`, extended with
  inhomogeneous-rate inversion for the shaped curves.
* the replay's constants, policy tokens and :class:`ReplayOutcome` --
  :func:`repro.serving.vector.replay` drives the stream through per-node
  core/NIC FIFO queues built from a
  :class:`~repro.cluster.node.ClusterSpec`, with the recovery paths --
  load shedding, request hedging, retry-with-backoff -- exposed as
  sweepable *policies* and wired to the ``timeout`` / ``straggler`` /
  ``overload`` fault kinds.

:mod:`repro.serving.slo` aggregates the replay into SLO reports and
keeps the analytic ``mm_c`` model as a validation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro import sitehash
from repro.cluster.sim import STRAGGLER_TAIL
from repro.errors import InputError, parse_number

#: The load-curve shapes a profile can take.
#:
#: ``constant``  stationary Poisson arrivals at ``rps`` (the M/M/c
#:               geometry -- the validation baseline).
#: ``diurnal``   one day-night cosine cycle over ``duration`` whose
#:               peak-to-trough ratio is ``peak_factor`` (mean ``rps``).
#: ``flash``     baseline ``rps`` with a flash crowd multiplying the
#:               rate by ``peak_factor`` inside the window starting at
#:               ``flash_start`` (fraction of the run) for
#:               ``flash_width`` of the run.
#: ``sessions``  heavy-tailed user sessions: session starts are Poisson,
#:               session lengths Pareto(``session_alpha``) with mean
#:               ``session_mean`` requests, intra-session gaps
#:               exponential ``think_seconds`` -- bursty, correlated
#:               arrivals.
PROFILE_SHAPES = ("constant", "diurnal", "flash", "sessions")

#: Recovery paths exposed as sweepable policies (combined with ``+``):
#: ``shed`` = admission control past the wait bound, ``hedge`` =
#: duplicate slow requests (first answer wins), ``retry`` = client
#: timeout with exponential backoff.  ``none`` and ``all`` are accepted
#: aliases.
POLICY_TOKENS = ("shed", "hedge", "retry")

#: Bounded retries per timed-out request.
MAX_RETRIES = 3

#: Client-observed timeout before a retry fires.
TIMEOUT_SECONDS = 0.5

#: Base of the exponential retry backoff.
BACKOFF_SECONDS = 0.05

#: A hedge fires once a request has been outstanding for this many mean
#: service times (~p98 of an exponential service distribution).
HEDGE_DELAY_SERVICES = 4.0

#: Request/response sizes on the wire (front-door NIC queueing).
REQUEST_WIRE_BYTES = 2 * 1024
RESPONSE_WIRE_BYTES = 16 * 1024

#: Mean of the deterministic straggler shaping ``1 + tail * u**8``
#: (``E[u**8] = 1/9``): what the shaping multiplies mean service time
#: by, so analytic comparisons can normalize it out.
STRAGGLER_MEAN_FACTOR = 1.0 + STRAGGLER_TAIL / 9.0

#: Resolution of the inhomogeneous-rate inversion grid.
_GRID_POINTS = 2048

_PROFILE_DEFAULTS = dict(
    rps=0.0, duration=20.0, loop="open", users=0, think_seconds=1.0,
    peak_factor=4.0, flash_start=0.4, flash_width=0.15,
    session_mean=8.0, session_alpha=1.5, max_requests=20000,
)


@dataclass(frozen=True)
class LoadProfile:
    """A frozen description of one load curve.

    ``rps == 0`` means "use the workload's default rate" (filled by
    :meth:`with_rate`); every other field has a sensible default so
    ``LoadProfile.parse("flash:rps=3200:peak=8")`` is a complete spec.
    ``max_requests`` caps the simulated stream: when ``rps * duration``
    exceeds it, the run simulates a proportionally shorter window at the
    same rate (never a silently thinner stream).
    """

    shape: str = "constant"
    rps: float = 0.0
    duration: float = 20.0
    loop: str = "open"
    users: int = 0
    think_seconds: float = 1.0
    peak_factor: float = 4.0
    flash_start: float = 0.4
    flash_width: float = 0.15
    session_mean: float = 8.0
    session_alpha: float = 1.5
    max_requests: int = 20000

    def __post_init__(self):
        if self.shape not in PROFILE_SHAPES:
            raise InputError(
                f"unknown profile shape {self.shape!r}; valid shapes: "
                f"{', '.join(PROFILE_SHAPES)}")
        if self.loop not in ("open", "closed"):
            raise InputError(f"loop must be 'open' or 'closed', got {self.loop!r}")
        if self.rps < 0:
            raise InputError(f"rps must be >= 0, got {self.rps}")
        if self.duration <= 0:
            raise InputError(f"duration must be positive, got {self.duration}")
        if self.users < 0:
            raise InputError(f"users must be >= 0, got {self.users}")
        if self.think_seconds <= 0:
            raise InputError("think_seconds must be positive")
        if self.peak_factor < 1.0:
            raise InputError(f"peak_factor must be >= 1, got {self.peak_factor}")
        if not 0.0 <= self.flash_start < 1.0:
            raise InputError("flash_start must be in [0, 1)")
        if not 0.0 < self.flash_width <= 1.0 - self.flash_start:
            raise InputError("flash_width must fit inside the run")
        if self.session_mean < 1.0:
            raise InputError("session_mean must be >= 1")
        if self.session_alpha <= 1.0:
            raise InputError("session_alpha must be > 1 (finite mean)")
        if self.max_requests < 1:
            raise InputError("max_requests must be >= 1")

    def with_rate(self, rps: float) -> "LoadProfile":
        """Fill an unset rate from the workload's default sweep point."""
        if self.rps > 0:
            return self
        return replace(self, rps=float(rps))

    def __str__(self) -> str:
        parts = [self.shape]
        render = {
            "rps": lambda v: f"{v:g}", "duration": lambda v: f"{v:g}",
            "loop": str, "users": str, "think_seconds": lambda v: f"{v:g}",
            "peak_factor": lambda v: f"{v:g}",
            "flash_start": lambda v: f"{v:g}",
            "flash_width": lambda v: f"{v:g}",
            "session_mean": lambda v: f"{v:g}",
            "session_alpha": lambda v: f"{v:g}", "max_requests": str,
        }
        names = {
            "think_seconds": "think", "peak_factor": "peak",
            "flash_start": "start", "flash_width": "width",
            "session_mean": "mean", "session_alpha": "alpha",
            "max_requests": "cap",
        }
        for field, default in _PROFILE_DEFAULTS.items():
            value = getattr(self, field)
            if value != default:
                parts.append(f"{names.get(field, field)}={render[field](value)}")
        return ":".join(parts)

    @classmethod
    def parse(cls, text) -> "LoadProfile":
        """Parse a ``shape:param=value:...`` spec (str round-trip)."""
        if isinstance(text, LoadProfile):
            return text
        fields = [f.strip() for f in str(text).strip().split(":") if f.strip()]
        if not fields:
            raise InputError("empty load profile spec")
        shape = fields[0]
        aliases = {
            "think": "think_seconds", "peak": "peak_factor",
            "start": "flash_start", "width": "flash_width",
            "mean": "session_mean", "alpha": "session_alpha",
            "cap": "max_requests",
        }
        kwargs = {}
        for item in fields[1:]:
            name, sep, value = item.partition("=")
            if not sep:
                raise InputError(
                    f"malformed parameter {item!r} in profile {text!r} "
                    "(expected name=value)")
            name = aliases.get(name.strip(), name.strip())
            if name not in _PROFILE_DEFAULTS:
                valid = sorted(set(_PROFILE_DEFAULTS) | set(aliases))
                raise InputError(
                    f"unknown parameter {name!r} in profile {text!r}; "
                    f"valid: {', '.join(valid)}")
            default = _PROFILE_DEFAULTS[name]
            if isinstance(default, str):
                kwargs[name] = value.strip()
            else:
                kwargs[name] = parse_number(
                    int if isinstance(default, int) else float, value,
                    name, text)
        return cls(shape=shape, **kwargs)


def policy_tokens(policy: str) -> tuple:
    """Normalize a policy spec to its canonical token tuple.

    ``"none"``/empty -> ``()``; ``"all"`` -> every token; otherwise
    ``+``-joined tokens from :data:`POLICY_TOKENS`, canonically ordered
    so ``"hedge+shed"`` and ``"shed+hedge"`` key identically.
    """
    text = (policy or "none").strip().lower()
    if text in ("none", ""):
        return ()
    if text == "all":
        return POLICY_TOKENS
    tokens = {t.strip() for t in text.split("+") if t.strip()}
    unknown = tokens - set(POLICY_TOKENS)
    if unknown:
        raise InputError(
            f"unknown policy {', '.join(sorted(unknown))!r}; valid: none, "
            f"all, {', '.join(POLICY_TOKENS)} (joined with '+')")
    return tuple(t for t in POLICY_TOKENS if t in tokens)


def canonical_policy(policy: str) -> str:
    """The canonical string form of a policy spec."""
    tokens = policy_tokens(policy)
    return "+".join(tokens) if tokens else "none"


@dataclass(frozen=True)
class ServingOptions:
    """The serving-plane knobs a run can carry: load profile + policy.

    The single optional ``serving`` field of
    :class:`~repro.core.runspec.RunSpec` -- flows into memo and disk
    cache keys via the ``str``/``parse`` round-trip
    (``"flash:rps=3200@shed+hedge"``).
    """

    profile: LoadProfile = LoadProfile()
    policy: str = "none"

    def __post_init__(self):
        if not isinstance(self.profile, LoadProfile):
            object.__setattr__(self, "profile",
                               LoadProfile.parse(self.profile))
        object.__setattr__(self, "policy", canonical_policy(self.policy))

    def __str__(self) -> str:
        return f"{self.profile}@{self.policy}"

    @classmethod
    def parse(cls, text) -> "ServingOptions":
        if isinstance(text, ServingOptions):
            return text
        body, sep, policy = str(text).partition("@")
        return cls(profile=LoadProfile.parse(body),
                   policy=policy if sep else "none")


# ---------------------------------------------------------------------------
# Arrival-stream generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalStream:
    """One generated request stream: timestamps, kinds, service variates.

    Bit-identical for identical ``(seed, profile, mix)`` -- the
    determinism invariant the serving tests assert serially and under
    ``jobs=N``.  ``times`` is None for closed-loop profiles (arrivals
    emerge from the think/response loop during replay), ``think`` for
    open-loop ones (no replay reads it).
    """

    profile: LoadProfile
    seed: int
    ops: tuple                       # request kind names, mix order
    times: Optional[np.ndarray]      # sorted arrival seconds (open loop)
    kinds: np.ndarray                # index into ops, one per request
    service_mult: np.ndarray         # exponential service variates, mean 1
    dup_mult: np.ndarray             # variates for hedged duplicates
    tail_u: np.ndarray               # uniform straggler shaping (u**8)
    think: Optional[np.ndarray]      # exponential think times (closed loop)
    duration: float                  # effective simulated window
    users: int                       # closed-loop population (0 = open)

    @property
    def size(self) -> int:
        return len(self.kinds)

    @property
    def offered_rps(self) -> float:
        return self.size / self.duration if self.duration > 0 else 0.0

    def mix_counts(self, upto: Optional[int] = None) -> dict:
        """Request mix ``{kind: count}`` over the first ``upto`` requests."""
        kinds = self.kinds if upto is None else self.kinds[:upto]
        counts = np.bincount(kinds, minlength=len(self.ops))
        return {op: int(c) for op, c in zip(self.ops, counts) if c}

    # -- array codec (see repro.core.store) ----------------------------------

    def to_arrays(self) -> tuple:
        """Split into JSON metadata + named arrays for the store
        (closed-loop streams have no ``times`` array, open-loop ones no
        ``think``)."""
        meta = {"profile": str(self.profile), "seed": int(self.seed),
                "ops": list(self.ops), "duration": float(self.duration),
                "users": int(self.users)}
        arrays = {"kinds": self.kinds, "service_mult": self.service_mult,
                  "dup_mult": self.dup_mult, "tail_u": self.tail_u,
                  "think": self.think, "times": self.times}
        return meta, {k: v for k, v in arrays.items() if v is not None}

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "ArrivalStream":
        return cls(
            profile=LoadProfile.parse(meta["profile"]),
            seed=int(meta["seed"]), ops=tuple(meta["ops"]),
            times=arrays.get("times"), kinds=arrays["kinds"],
            service_mult=arrays["service_mult"],
            dup_mult=arrays["dup_mult"], tail_u=arrays["tail_u"],
            think=arrays.get("think"), duration=float(meta["duration"]),
            users=int(meta["users"]),
        )


def _stream_rng(profile: LoadProfile, seed: int) -> np.random.Generator:
    """Generator keyed on the full ``(seed, profile)`` identity."""
    return np.random.default_rng(
        [int(seed) & (2 ** 63 - 1), sitehash.key(str(profile).encode())])


def _rate_curve(profile: LoadProfile, grid: np.ndarray) -> np.ndarray:
    """Relative arrival rate over the run (mean irrelevant; the curve is
    normalized through its cumulative during inversion)."""
    if profile.shape == "diurnal":
        # Peak/trough ratio = peak_factor, mean 1: trough + cosine hump.
        trough = 2.0 / (profile.peak_factor + 1.0)
        hump = 0.5 - 0.5 * np.cos(2.0 * np.pi * grid / grid[-1])
        return trough * (1.0 + (profile.peak_factor - 1.0) * hump)
    if profile.shape == "flash":
        start = profile.flash_start * grid[-1]
        end = start + profile.flash_width * grid[-1]
        rate = np.ones_like(grid)
        rate[(grid >= start) & (grid < end)] = profile.peak_factor
        return rate
    return np.ones_like(grid)


def _effective_window(profile: LoadProfile) -> tuple:
    """(request count, simulated duration) under the ``max_requests`` cap.

    The cap shortens the *window* at the same offered rate -- never
    thins the stream -- so overload stays overload.
    """
    total = profile.rps * profile.duration
    if profile.shape == "flash":
        total *= 1.0 + (profile.peak_factor - 1.0) * profile.flash_width
    n = max(1, int(round(total)))
    if n <= profile.max_requests:
        return n, profile.duration
    duration = profile.duration * profile.max_requests / n
    return profile.max_requests, duration


def generate_stream(profile: LoadProfile, mix, seed: int = 0,
                    store=None) -> ArrivalStream:
    """Materialize the deterministic request stream for one profile.

    ``mix`` is the server's ``((op, probability), ...)`` request mix.
    Open-loop shapes are generated by inverse-transform sampling of the
    cumulative rate curve (constant/diurnal/flash) or by the structural
    session process (``sessions``); closed-loop profiles pre-draw kinds,
    service variates, and think times for up to ``max_requests``
    requests and leave arrival times to the replay loop.

    Streams are the store's ``stream`` kind, keyed by ``(seed, profile,
    mix)``: warm sweeps and repeated policy comparisons mmap the
    generated stream instead of regenerating it (generation is pure in
    that key, so the stored bits are the generated bits).  ``store``
    None reads :func:`repro.core.store.current` (the active harness
    scope's store, else the default), False bypasses the store, and a
    :class:`~repro.core.store.Store` is used as given.
    """
    if profile.rps <= 0 and not (profile.loop == "closed" and profile.users):
        raise ValueError(
            "profile has no rate; call with_rate() or give rps=/users=")
    if store is None:
        from repro.core.store import current

        store = current()
    if store is None or store is False:
        return _generate_stream(profile, mix, seed)
    key = ("serving-stream", int(seed), str(profile),
           tuple((str(op), float(p)) for op, p in mix))
    stream = store.get("stream", key)
    if stream is None:
        stream = store.put("stream", key, _generate_stream(profile, mix, seed))
    # The codec round-trips the profile through its ``str`` form (the
    # key identity); hand back the caller's own object so ``%g``
    # rendering can never leak into a reconstructed field.
    return replace(stream, profile=profile)


def _generate_stream(profile: LoadProfile, mix,
                     seed: int = 0) -> ArrivalStream:
    rng = _stream_rng(profile, seed)
    ops = tuple(op for op, _ in mix)
    probs = np.array([p for _, p in mix], dtype=np.float64)
    probs = probs / probs.sum()

    users = 0
    if profile.loop == "closed":
        # Little's law sizing when the population is not given explicitly.
        users = profile.users or max(
            1, int(round(profile.rps * profile.think_seconds)))
        n, duration = profile.max_requests, profile.duration
        times = None
    elif profile.shape == "sessions":
        times, duration = _session_times(profile, rng)
        n = len(times)
    else:
        n, duration = _effective_window(profile)
        grid = np.linspace(0.0, duration, _GRID_POINTS + 1)
        cum = np.concatenate(
            ([0.0], np.cumsum(_rate_curve(profile, grid)[:-1])))
        u = np.sort(rng.random(n))
        times = np.interp(u * cum[-1], cum, grid)

    kinds = rng.choice(len(ops), size=n, p=probs) if len(ops) > 1 \
        else np.zeros(n, dtype=np.int64)
    return ArrivalStream(
        profile=profile, seed=int(seed), ops=ops, times=times,
        kinds=kinds.astype(np.int64),
        service_mult=rng.exponential(1.0, size=n),
        dup_mult=rng.exponential(1.0, size=n),
        tail_u=rng.random(n),
        think=(rng.exponential(profile.think_seconds, size=n)
               if profile.loop == "closed" else None),
        duration=float(duration), users=users,
    )


def _session_times(profile: LoadProfile, rng) -> tuple:
    """Heavy-tailed session arrivals: Poisson session starts, Pareto
    session sizes (mean ``session_mean``), exponential intra-gaps."""
    n_target, duration = _effective_window(profile)
    sessions = max(1, int(round(duration * profile.rps / profile.session_mean)))
    starts = np.sort(rng.random(sessions)) * duration
    alpha = profile.session_alpha
    raw = 1.0 + rng.pareto(alpha, size=sessions)       # mean alpha/(alpha-1)
    sizes = np.maximum(1, np.round(
        raw * profile.session_mean * (alpha - 1.0) / alpha)).astype(np.int64)
    total = int(sizes.sum())
    gaps = rng.exponential(profile.think_seconds, size=total)
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    gaps[first] = 0.0
    cum = np.cumsum(gaps)
    within = cum - np.repeat(cum[first], sizes)
    times = np.repeat(starts, sizes) + within
    times = np.sort(times[times < duration])
    if len(times) > profile.max_requests:
        times = times[:profile.max_requests]
    if len(times) == 0:
        times = starts[:1]
    return times, duration


# ---------------------------------------------------------------------------
# Request-plane replay: per-node core/NIC FIFO queues
# ---------------------------------------------------------------------------

@dataclass
class ReplayOutcome:
    """Raw result of driving one stream through the request plane."""

    latencies: np.ndarray        # client-observed seconds, completed only
    requests: int                # requests issued
    completed: int
    shed: int
    failed: int
    hedged: int
    retries: int
    busy_cpu_seconds: float      # core-seconds consumed (incl. waste)
    duration: float              # offered window (seconds)
    makespan: float              # max(duration, last client completion)
    offered_rps: float
    mix: dict                    # kind -> count over *issued* requests
    ops: tuple = ()              # request kind names, mix order
    arena: object = None         # RequestArena (per-request history)

    @property
    def achieved_rps(self) -> float:
        return self.completed / self.makespan if self.makespan > 0 else 0.0

    @property
    def events(self) -> np.ndarray:
        """Per-request structured array (``REQUEST_DTYPE``): one row per
        issued request, ``finish`` NaN for requests with no answer."""
        return self.arena.pack()

    def requests_for(self, op) -> np.ndarray:
        """Event rows for one request kind (mix name or kind index)."""
        return self.arena.requests_for(op)
