"""Circuit breaker demoting a crashing backend to the numpy reference.

Every backend is bit-identical to the scalar oracle by contract (see
:mod:`repro.core.backend`), so when an optimized backend's kernel
*crashes* — a JIT miscompile, a numba regression, an injected fault —
the correct response is not to fail the request but to re-run the same
call on the always-available :class:`~repro.core.backend.NumpyBackend`
and serve the identical answer.  :class:`BreakerBackend` does exactly
that, with classic circuit-breaker state:

* **closed** — calls go to the primary; one failure opens the circuit
  (the failed call is transparently re-run on the fallback).
* **open** — calls go straight to the fallback for ``cooldown_calls``
  calls; the primary is not touched.
* **half-open** — after the cooldown, one probe call tries the primary
  again: success closes the circuit, failure re-opens it (counted as a
  fresh trip).

Counters (``trips``, ``primary_failures``, ``fallback_calls``,
``probes``) surface through ``MappingEngine.stats``.  The kernel entry
points are fault points (``backend.finish`` / ``backend.geo_cycles``)
so a seeded :class:`~repro.runtime.faults.FaultPlan` can crash the
primary deterministically — the property suite proves post-trip
results are bit-identical to the fault-free run.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.backend import Backend, get_backend
from ..core.types import ConfigurationError
from .faults import fault_point, register_fault_site

__all__ = ["CircuitBreaker", "BreakerBackend",
           "SITE_FINISH", "SITE_GEO_CYCLES"]

SITE_FINISH = register_fault_site(
    "backend.finish", "primary backend crash in the eqs. 4-8 finisher")
SITE_GEO_CYCLES = register_fault_site(
    "backend.geo_cycles", "primary backend crash in the (A, G) sweep "
    "kernel")

_SITE_OF_METHOD = {"finish": SITE_FINISH, "geo_cycles": SITE_GEO_CYCLES}

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """The thread-safe closed/open/half-open state machine."""

    def __init__(self, cooldown_calls: int = 64) -> None:
        if cooldown_calls < 1:
            raise ConfigurationError(
                f"cooldown_calls must be >= 1, got {cooldown_calls!r}")
        self.cooldown_calls = int(cooldown_calls)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._cooldown_left = 0
        self._probing = False
        self.trips = 0
        self.primary_failures = 0
        self.fallback_calls = 0
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def try_primary(self) -> bool:
        """Whether the next call should attempt the primary backend."""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                self._cooldown_left -= 1
                if self._cooldown_left > 0:
                    return False
                self._state = HALF_OPEN
            # half-open: admit exactly one probe at a time.
            if self._probing:
                return False
            self._probing = True
            self.probes += 1
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = CLOSED
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self.primary_failures += 1
            self.trips += 1
            self._state = OPEN
            self._cooldown_left = self.cooldown_calls
            self._probing = False

    def record_fallback(self) -> None:
        with self._lock:
            self.fallback_calls += 1

    def snapshot(self) -> Dict[str, Union[int, str]]:
        """Counters + state for ``MappingEngine.stats`` envelopes."""
        with self._lock:
            return {"state": self._state, "trips": self.trips,
                    "primary_failures": self.primary_failures,
                    "fallback_calls": self.fallback_calls,
                    "probes": self.probes}


class BreakerBackend(Backend):
    """A :class:`~repro.core.backend.Backend` guarded by a breaker.

    Delegates the two kernel methods to *primary* while the circuit
    allows it, demoting to *fallback* (numpy unless told otherwise) on
    any exception.  Values are bit-identical either way — that is the
    backend contract this wrapper leans on, and the property suite
    re-proves it under injected crashes.
    """

    def __init__(self, primary: Backend,
                 fallback: Optional[Backend] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.primary = primary
        self.fallback = fallback if fallback is not None \
            else get_backend("numpy")
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.name = f"{primary.name}+breaker"

    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        breaker = self.breaker
        if breaker.try_primary():
            try:
                fault_point(_SITE_OF_METHOD[method])
                result = getattr(self.primary, method)(*args, **kwargs)
            except Exception:  # any kernel crash demotes to the fallback
                breaker.record_failure()
            else:
                breaker.record_success()
                return result
        breaker.record_fallback()
        return getattr(self.fallback, method)(*args, **kwargs)

    def finish(self, area: np.ndarray, windows: np.ndarray,
               n_pw: np.ndarray, rows: int, cols: int,
               in_channels: int, out_channels: int,
               dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        return self._call("finish", area, windows, n_pw, rows, cols,
                          in_channels, out_channels, dtype)

    def geo_cycles(self, rows: np.ndarray, cols: np.ndarray,
                   n_win: np.ndarray, im2col_rows: np.ndarray,
                   oc: np.ndarray, area_f: np.ndarray,
                   windows_f: np.ndarray, n_pw_f: np.ndarray,
                   ic_f: np.ndarray, oc_f: np.ndarray,
                   seg_starts: np.ndarray, seg_geo: np.ndarray,
                   dtype: np.dtype) -> np.ndarray:
        return self._call("geo_cycles", rows, cols, n_win, im2col_rows,
                          oc, area_f, windows_f, n_pw_f, ic_f, oc_f,
                          seg_starts, seg_geo, dtype)
