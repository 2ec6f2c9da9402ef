"""Deterministic fault injection for the simulated runtime.

A :class:`FaultPlan` is a seeded description of *where* and *how often* the
simulated stack should fail.  It is attached to a
:class:`~repro.obs.RunContext` (``obs.faults``) and consulted by four fault
sites threaded through the runtime:

========== ==================================================== =============================
site       where it fires                                        error raised
========== ==================================================== =============================
transfer   every ``cl.queue`` transfer command (and once per     :class:`~repro.errors.TransferFault`
           plan-cache replayed frame, standing in for the
           replayed transfers)
kernel     every ``enqueue_nd_range`` / emulated kernel launch   :class:`~repro.errors.KernelLaunchFault`
           (and once per replayed frame)
oom        every ``BufferPool.checkout``                         :class:`~repro.errors.DeviceOOMError`
worker     every batch-engine frame dispatch                     :class:`~repro.errors.WorkerCrashError`
hang       every batch-engine frame dispatch (stalls; raises     :class:`~repro.errors.FrameHangError`
           only when the lifecycle watchdog cancels the stall)
========== ==================================================== =============================

Determinism: each site owns a private ``random.Random`` seeded from
``(plan seed, site name)``, and draws advance one per :meth:`check` call —
the same plan over the same single-threaded run faults the same
operations every time.  (Under a multi-worker batch the per-site draw
*sequence* is still deterministic; which frame observes which draw depends
on thread interleaving.)

Spec grammar (the CLI's ``--inject-faults`` argument)::

    SPEC    := SEGMENT (";" SEGMENT)*
    SEGMENT := "seed=" INT
             | SITE ":" PARAM ("," PARAM)*
    SITE    := "transfer" | "kernel" | "oom" | "worker" | "hang"
    PARAM   := "rate=" FLOAT          # fault probability per check, 0..1
             | FLOAT                  # shorthand for rate=
             | "kind=" ("transient" | "permanent")
             | "after=" INT           # skip the first N checks of the site
             | "max=" INT             # stop injecting after N faults
             | "seconds=" FLOAT       # hang only: stall duration

Examples::

    transfer:rate=0.2,kind=transient;seed=7
    kernel:1.0,kind=permanent
    oom:rate=0.05;worker:rate=0.01,max=2;seed=42

Every injected fault increments ``repro_faults_injected_total{site}`` and
emits a warning log record, so a resilience test can assert both that
faults *happened* and that the run recovered from them.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..errors import (
    DeviceOOMError,
    FaultSpecError,
    FrameHangError,
    KernelLaunchFault,
    ReproError,
    TransferFault,
    WorkerCrashError,
)

#: Recognized fault sites, in documentation order.
SITES = ("transfer", "kernel", "oom", "worker", "hang")

#: Error class raised per site.
_SITE_ERRORS: dict[str, type[ReproError]] = {
    "transfer": TransferFault,
    "kernel": KernelLaunchFault,
    "oom": DeviceOOMError,
    "worker": WorkerCrashError,
    "hang": FrameHangError,
}

#: How long a fired ``hang`` site stalls before giving up and continuing
#: (overridden per spec with ``seconds=``).
DEFAULT_HANG_SECONDS = 30.0

#: Cooperative-cancellation poll period while a ``hang`` site stalls.
_HANG_POLL_S = 0.01

_KINDS = ("transient", "permanent")


def _injected_error(site: str, spec: SiteSpec, detail: str) -> ReproError:
    """The error a fired ``site`` raises.  Built here, so the raising
    frame, which its traceback holds, keeps no reference to it (that
    cycle would keep the failed call's buffers alive until a gc pass)."""
    exc = _SITE_ERRORS[site](
        f"injected {spec.kind} {site} fault"
        + (f" ({detail})" if detail else "")
    )
    exc.transient = spec.kind == "transient"
    exc.injected = True
    return exc


@dataclass(frozen=True)
class SiteSpec:
    """Fault configuration of one site.

    ``seconds`` only matters for the ``hang`` site: how long a fired hang
    stalls the operation before giving up and continuing (a lifecycle
    watchdog is expected to cancel it first).
    """

    rate: float = 0.0
    kind: str = "transient"
    after: int = 0
    max_faults: int | None = None
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise FaultSpecError(
                f"seconds must be >= 0, got {self.seconds}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultSpecError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.kind not in _KINDS:
            raise FaultSpecError(
                f"fault kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.after < 0:
            raise FaultSpecError(f"after must be >= 0, got {self.after}")
        if self.max_faults is not None and self.max_faults < 0:
            raise FaultSpecError(
                f"max must be >= 0, got {self.max_faults}"
            )


class FaultPlan:
    """Seedable, thread-safe fault schedule over the runtime's sites.

    Build one directly (``FaultPlan({"transfer": SiteSpec(rate=0.2)})``)
    or from the CLI spec grammar via :meth:`parse`.  Attach it to a
    :class:`~repro.obs.RunContext` (``RunContext.create(faults=plan)``)
    and every instrumented component downstream participates.
    """

    def __init__(self, sites: dict[str, SiteSpec] | None = None,
                 seed: int = 0) -> None:
        sites = dict(sites or {})
        for name in sites:
            if name not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {name!r}; expected one of "
                    f"{', '.join(SITES)}"
                )
        self.sites = sites
        self.seed = seed
        self._lock = threading.Lock()
        self._rngs = {
            name: random.Random(f"{seed}:{name}") for name in sites
        }
        #: Per-site number of checks seen / faults injected.
        self.checks: dict[str, int] = {name: 0 for name in sites}
        self.injected: dict[str, int] = {name: 0 for name in sites}

    # -- construction ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``--inject-faults`` grammar (see module docstring)."""
        if not isinstance(spec, str) or not spec.strip():
            raise FaultSpecError("empty fault spec")
        sites: dict[str, SiteSpec] = {}
        seed = 0
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                seed = cls._parse_int(segment[len("seed="):], "seed")
                continue
            site, sep, body = segment.partition(":")
            site = site.strip()
            if not sep or not body.strip():
                raise FaultSpecError(
                    f"malformed segment {segment!r}: expected "
                    "'site:rate=R[,kind=K,...]' or 'seed=N'"
                )
            if site not in SITES:
                raise FaultSpecError(
                    f"unknown fault site {site!r}; expected one of "
                    f"{', '.join(SITES)}"
                )
            if site in sites:
                raise FaultSpecError(f"duplicate fault site {site!r}")
            sites[site] = cls._parse_site(site, body)
        if not sites:
            raise FaultSpecError(
                f"fault spec {spec!r} configures no sites"
            )
        return cls(sites, seed=seed)

    @staticmethod
    def _parse_int(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise FaultSpecError(
                f"{what} must be an integer, got {text!r}"
            ) from None

    @staticmethod
    def _parse_float(text: str, what: str) -> float:
        try:
            return float(text)
        except ValueError:
            raise FaultSpecError(
                f"{what} must be a number, got {text!r}"
            ) from None

    @classmethod
    def _parse_site(cls, site: str, body: str) -> SiteSpec:
        kwargs: dict = {}
        for param in body.split(","):
            param = param.strip()
            if not param:
                continue
            key, sep, value = param.partition("=")
            if not sep:
                # bare number: shorthand for rate=
                key, value = "rate", param
            key = key.strip()
            value = value.strip()
            if key == "rate":
                kwargs["rate"] = cls._parse_float(value, f"{site} rate")
            elif key == "kind":
                kwargs["kind"] = value
            elif key == "after":
                kwargs["after"] = cls._parse_int(value, f"{site} after")
            elif key == "max":
                kwargs["max_faults"] = cls._parse_int(value, f"{site} max")
            elif key == "seconds":
                if site != "hang":
                    raise FaultSpecError(
                        f"seconds= only applies to the hang site, "
                        f"not {site!r}"
                    )
                kwargs["seconds"] = cls._parse_float(value,
                                                     f"{site} seconds")
            else:
                raise FaultSpecError(
                    f"unknown fault parameter {key!r} for site {site!r} "
                    "(expected rate/kind/after/max/seconds)"
                )
        return SiteSpec(**kwargs)

    # -- injection ------------------------------------------------------------

    def check(self, site: str, obs=None, *, detail: str = "",
              cancel: threading.Event | None = None) -> None:
        """One pass through a fault site; raises the site's error when the
        schedule says this operation fails.

        ``obs`` (a :class:`~repro.obs.RunContext`) records the injection in
        ``repro_faults_injected_total{site}`` and the structured log.

        The ``hang`` site behaves differently: a fired hang *stalls* the
        calling thread for the spec's ``seconds`` (simulating a stuck
        frame) instead of raising.  ``cancel`` is the cooperative
        cancellation token — when the lifecycle watchdog sets it, the
        stall aborts immediately with :class:`~repro.errors.FrameHangError`
        (how a hung-and-cancelled frame dies); a stall that runs its full
        ``seconds`` uncancelled returns normally, i.e. the frame was just
        slow.
        """
        spec = self.sites.get(site)
        if spec is None or spec.rate <= 0.0:
            return
        with self._lock:
            n = self.checks[site] = self.checks.get(site, 0) + 1
            if n <= spec.after:
                return
            if (spec.max_faults is not None
                    and self.injected[site] >= spec.max_faults):
                return
            if self._rngs[site].random() >= spec.rate:
                return
            self.injected[site] += 1
            count = self.injected[site]
        if obs is not None and obs.enabled:
            obs.metrics.counter(
                "repro_faults_injected_total",
                "Simulated faults injected, by runtime site",
                ("site",),
            ).labels(site=site).inc()
            obs.log.warning(
                "fault.injected", site=site, kind=spec.kind,
                n=count, detail=detail,
            )
        if site == "hang":
            self._stall(spec, detail=detail, cancel=cancel)
            return
        raise _injected_error(site, spec, detail)

    @staticmethod
    def _stall(spec: SiteSpec, *, detail: str,
               cancel: threading.Event | None) -> None:
        """Stall for ``spec.seconds`` or until cancelled (outside the plan
        lock — other sites keep injecting while this thread hangs)."""
        deadline = time.monotonic() + spec.seconds
        while time.monotonic() < deadline:
            if cancel is not None:
                if cancel.wait(min(_HANG_POLL_S,
                                   max(0.0, deadline - time.monotonic()))):
                    exc = FrameHangError(
                        "injected hang cancelled by watchdog"
                        + (f" ({detail})" if detail else "")
                    )
                    exc.transient = False
                    exc.injected = True
                    raise exc
            else:
                time.sleep(min(_HANG_POLL_S,
                               max(0.0, deadline - time.monotonic())))

    # -- introspection --------------------------------------------------------

    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def describe(self) -> str:
        """One-line summary (used by CLI logs)."""
        parts = [
            f"{site}:rate={spec.rate},kind={spec.kind}"
            + (f",after={spec.after}" if spec.after else "")
            + (f",max={spec.max_faults}"
               if spec.max_faults is not None else "")
            + (f",seconds={spec.seconds}" if site == "hang" else "")
            for site, spec in sorted(self.sites.items())
        ]
        return ";".join(parts) + f";seed={self.seed}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()!r})"
