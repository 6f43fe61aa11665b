"""Placement-query engine: typed requests against one compiled artifact.

:class:`QueryEngine` answers four request kinds against a
:class:`~repro.serve.artifacts.ScenarioArtifact`:

* ``place`` — run a registered placement algorithm for a budget ``k``;
* ``evaluate`` — score one or more explicit placements
  (:func:`~repro.core.kernel.evaluate_placement_many`);
* ``what_if`` — marginal effect of adding/removing one site to/from a
  placement (one batched evaluation of base + variant);
* ``top_gains`` — the best next intersections given a committed
  placement, ranked by marginal gain.

The engine is deliberately a **thin veneer**: every number it returns
comes from the same library calls a direct user would make
(``algorithm.place``, ``evaluate_placement_many``, evaluator gain
scans), so served results are bit-identical to library results — the
differential tests in ``tests/serve`` pin exactly that.

Requests may override the artifact's utility (``{"utility": {"name",
"threshold"}}``); the engine caches one
:meth:`~repro.core.scenario.Scenario.with_utility` clone per distinct
utility so the kernel's per-scenario static cache is reused across
requests.  Responses for identical requests are served from a bounded
LRU keyed by the canonical request JSON, with hit/miss counters wired
into :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import trace as obs_trace
from ..algorithms import algorithm_by_name, registered_algorithms
from ..core.kernel import ArrayEvaluator, evaluate_placement_many
from ..core.scenario import Scenario
from ..errors import ReproError, ServeFaultError, ServeRequestError
from ..graphs import NodeId
from ..graphs.io import _decode_id, _encode_id
from ..reliability.faults import FaultInjector
from .artifacts import ScenarioArtifact, utility_from_spec, utility_to_spec

#: Request kinds the engine understands.
REQUEST_KINDS = ("place", "evaluate", "what_if", "top_gains")

#: Algorithms with a stochastic or exponential-time select are still
#: callable, but ``place`` requests must opt in explicitly.
_DEFAULT_ALGORITHM = "composite-greedy"


def decode_site(raw: object) -> NodeId:
    """Decode one JSON-carried intersection id (lists become tuples).

    A value that does not decode to a hashable id — a list of sites
    where one site is expected, say — is a :class:`ServeRequestError`.
    """
    site = _decode_id(raw)
    try:
        hash(site)
    except TypeError:
        raise ServeRequestError(
            f"{raw!r} is not one intersection id"
        ) from None
    return site


def encode_site(site: NodeId) -> object:
    """Encode one intersection id for a JSON response."""
    return _encode_id(site)


def _decode_placement(raw: object, field: str) -> List[NodeId]:
    if not isinstance(raw, (list, tuple)):
        raise ServeRequestError(
            f"request field {field!r} must be a list of sites, got "
            f"{type(raw).__name__}"
        )
    return [decode_site(site) for site in raw]


class QueryEngine:
    """Synchronous query dispatcher over one compiled scenario artifact.

    Parameters
    ----------
    artifact:
        The compiled scenario to serve.
    cache_size:
        Maximum retained responses in the per-engine LRU (0 disables
        result caching).
    fault_injector:
        Optional :class:`~repro.reliability.FaultInjector`; its
        request-level rates drive :meth:`check_fault`.
    """

    def __init__(
        self,
        artifact: ScenarioArtifact,
        cache_size: int = 256,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if cache_size < 0:
            raise ServeRequestError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self._artifact = artifact
        self._cache_size = cache_size
        self._cache: "OrderedDict[str, Dict[str, object]]" = OrderedDict()
        self._injector = fault_injector
        self._request_index = 0
        self._last_fault_index = -1
        self._utilities: Dict[Tuple[str, float], Scenario] = {}

    @property
    def artifact(self) -> ScenarioArtifact:
        """The artifact this engine serves."""
        return self._artifact

    @property
    def scenario(self) -> Scenario:
        """The artifact's scenario (default utility)."""
        return self._artifact.scenario

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def check_fault(self) -> float:
        """Fault decision for the next admitted request.

        Returns the injected stall in seconds (0.0 normally); raises
        :class:`~repro.errors.ServeFaultError` when the injector decides
        this request fails.  The caller (the HTTP server) applies the
        stall asynchronously before dispatching to :meth:`handle`.
        """
        index = self._request_index
        self._request_index += 1
        self._last_fault_index = index
        if self._injector is None:
            return 0.0
        fail, delay = self._injector.request_fault(index)
        if fail:
            raise ServeFaultError(
                f"injected fault on request #{index}"
            )
        return delay

    def corrupt_reply(self) -> bool:
        """Whether the reply to the last :meth:`check_fault` request is garbled.

        Consulted by the HTTP server *after* the handler ran, so the
        corruption models a reply mangled in flight (the engine's own
        result stays correct); keyed to the same request index as
        :meth:`check_fault`, so a replayed request replays its fate.
        """
        if self._injector is None or self._last_fault_index < 0:
            return False
        return self._injector.request_corrupt(self._last_fault_index)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, object]) -> Dict[str, object]:
        """Answer one request dict (the JSON body of ``POST /query``).

        When a distributed trace is active (the serving layer set the
        context in :mod:`repro.obs.trace`), the call is timed on the
        trace recorder's injected clock and lands as an
        ``engine.handle`` span under the worker's request span; the
        untraced path pays a single context-variable check.
        """
        ctx = obs_trace.current()
        if ctx is None:
            return self._handle(request)
        clock = ctx.recorder.clock
        t_start = clock.now()
        status = "ok"
        try:
            response = self._handle(request)
        except ReproError as error:
            status = type(error).__name__
            raise
        finally:
            obs_trace.record(
                "engine.handle",
                t_start,
                clock.now(),
                {"kind": str(request.get("kind")), "status": status}
                if isinstance(request, dict)
                else {"status": status},
                context=ctx,
            )
        return response

    def _handle(self, request: Dict[str, object]) -> Dict[str, object]:
        if not isinstance(request, dict):
            raise ServeRequestError("request body must be a JSON object")
        kind = request.get("kind")
        if kind not in REQUEST_KINDS:
            raise ServeRequestError(
                f"unknown request kind {kind!r}; expected one of "
                f"{REQUEST_KINDS}"
            )
        obs.count(f"serve.requests.{kind}")
        key = self._cache_key(request)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                obs.count("serve.cache.hits")
                return dict(cached)
            obs.count("serve.cache.misses")
        handler = getattr(self, f"_handle_{kind}")
        response: Dict[str, object] = handler(request)
        response["kind"] = kind
        response["digest"] = self._artifact.digest
        if key is not None:
            self._cache[key] = dict(response)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return response

    def _cache_key(self, request: Dict[str, object]) -> Optional[str]:
        if self._cache_size == 0:
            return None
        try:
            return json.dumps(
                request, sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError):
            raise ServeRequestError(
                "request is not JSON-serializable"
            ) from None

    # ------------------------------------------------------------------
    # per-request scenario (utility overrides)
    # ------------------------------------------------------------------
    def scenario_for(self, request: Dict[str, object]) -> Scenario:
        """The scenario a request runs against (utility override aware)."""
        raw = request.get("utility")
        if raw is None:
            return self._artifact.scenario
        if not isinstance(raw, dict):
            raise ServeRequestError(
                f"request field 'utility' must be an object, got "
                f"{type(raw).__name__}"
            )
        try:
            utility = utility_from_spec(raw)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        key = (type(utility).__name__, utility.threshold)
        clone = self._utilities.get(key)
        if clone is None:
            clone = self._artifact.scenario.with_utility(utility)
            self._utilities[key] = clone
            obs.count("serve.utility_clones")
        return clone

    # ------------------------------------------------------------------
    # request kinds
    # ------------------------------------------------------------------
    def _handle_place(self, request: Dict[str, object]) -> Dict[str, object]:
        scenario = self.scenario_for(request)
        name = request.get("algorithm", _DEFAULT_ALGORITHM)
        if not isinstance(name, str):
            raise ServeRequestError("request field 'algorithm' must be a string")
        k = request.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ServeRequestError(
                f"request field 'k' must be a non-negative integer, got {k!r}"
            )
        kwargs: Dict[str, object] = {}
        seed = request.get("seed")
        if seed is not None:
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ServeRequestError("request field 'seed' must be an integer")
            kwargs["seed"] = seed
        try:
            algorithm = algorithm_by_name(name, **kwargs)
        except TypeError as error:
            raise ServeRequestError(
                f"algorithm {name!r} does not accept "
                f"{sorted(kwargs)}: {error}"
            ) from None
        except ReproError as error:
            raise ServeRequestError(
                f"{error}; known algorithms: {list(registered_algorithms())}"
            ) from None
        try:
            placement = algorithm.place(scenario, k)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        return {
            "raps": [encode_site(site) for site in placement.raps],
            "attracted": placement.attracted,
            "algorithm": placement.algorithm,
            "utility": utility_to_spec(scenario.utility),
        }

    def evaluate_totals(
        self,
        placements: Sequence[Sequence[NodeId]],
        utility: Optional[Dict[str, object]] = None,
    ) -> List[float]:
        """Score placements verbatim via ``evaluate_placement_many``.

        The shared entry point for the ``evaluate`` request kind and the
        micro-batcher: one packed-index batch call, no result caching,
        no reordering-sensitive state, so batched and direct calls agree
        bit-for-bit.
        """
        request: Dict[str, object] = {"kind": "evaluate"}
        if utility is not None:
            request["utility"] = utility
        scenario = self.scenario_for(request)
        try:
            return evaluate_placement_many(scenario, placements)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None

    def _handle_evaluate(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        raw = request.get("placements")
        if not isinstance(raw, list) or not raw:
            raise ServeRequestError(
                "request field 'placements' must be a non-empty list of "
                "site lists"
            )
        placements = [
            _decode_placement(entry, f"placements[{index}]")
            for index, entry in enumerate(raw)
        ]
        totals = self.evaluate_totals(
            placements,
            utility=request.get("utility"),  # type: ignore[arg-type]
        )
        return {"totals": totals}

    def _handle_what_if(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        base = _decode_placement(request.get("placement"), "placement")
        add = request.get("add")
        remove = request.get("remove")
        if (add is None) == (remove is None):
            raise ServeRequestError(
                "what_if needs exactly one of 'add' or 'remove'"
            )
        if add is not None:
            site = decode_site(add)
            if site in base:
                raise ServeRequestError(
                    f"site {site!r} is already in the placement"
                )
            variant = base + [site]
        else:
            site = decode_site(remove)
            if site not in base:
                raise ServeRequestError(
                    f"site {site!r} is not in the placement"
                )
            variant = [node for node in base if node != site]
        totals = self.evaluate_totals(
            [base, variant],
            utility=request.get("utility"),  # type: ignore[arg-type]
        )
        return {
            "site": encode_site(site),
            "action": "add" if add is not None else "remove",
            "base": totals[0],
            "variant": totals[1],
            "delta": totals[1] - totals[0],
        }

    def _handle_top_gains(
        self, request: Dict[str, object]
    ) -> Dict[str, object]:
        scenario = self.scenario_for(request)
        placed = _decode_placement(request.get("placement", []), "placement")
        limit = request.get("limit", 10)
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ServeRequestError(
                f"request field 'limit' must be a positive integer, got "
                f"{limit!r}"
            )
        evaluator = ArrayEvaluator(scenario)
        try:
            for site in placed:
                evaluator.place(site)
        except ReproError as error:
            raise ServeRequestError(str(error)) from None
        sites = scenario.candidate_sites
        gains = evaluator.gains(sites).tolist()
        ranked = sorted(
            (
                (order, site, gain)
                for order, (site, gain) in enumerate(zip(sites, gains))
                if gain > 0.0 and not evaluator.is_placed(site)
            ),
            # Candidate-site order breaks gain ties, matching the greedy
            # scans' deterministic argmax.
            key=lambda item: (-item[2], item[0]),
        )
        return {
            "gains": [
                {"site": encode_site(site), "gain": gain}
                for _, site, gain in ranked[:limit]
            ],
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Current LRU occupancy (for ``/healthz`` and tests)."""
        return {"entries": len(self._cache), "capacity": self._cache_size}


__all__ = [
    "QueryEngine",
    "REQUEST_KINDS",
    "decode_site",
    "encode_site",
]
