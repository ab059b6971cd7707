"""Cluster scheduler: time-window-aware vector bin packing (Section 3.3).

Traditional VM schedulers check a single demand vector against the free
capacity of each server.  Coach extends the vector with one entry per time
window (plus one for the static guaranteed portion of non-fungible
resources), so VMs with complementary temporal patterns can share the same
oversubscribed capacity.

A VM is admitted onto a server only when it passes both checks:

* ``fits_vector_check`` -- the paper's formulation: per-window summed demand
  and the summed PA portions must each fit the server's capacity.
* ``fits_backing_check`` -- the physical one: the PA pool plus the
  multiplexed VA pool (Eq. 3 + Eq. 4) must fit, so the server never commits
  more physical memory than it has.

Placement also reads the VM's allocation class when ``place()`` is given
one: a reserved VM that fits nowhere preempts spot VMs.

Matrix-form bookkeeping
-----------------------

Scheduling-time state lives in a :class:`ClusterLedger` owned by the
:class:`ClusterScheduler`, not in per-server dictionaries:

* ``demand`` -- one ``(n_servers, n_windows)`` committed-demand matrix per
  resource, stored as a single ``(n_resources, n_servers, n_windows)`` array;
* ``pa_memory`` -- an ``(n_servers,)`` vector of committed guaranteed (PA)
  memory;
* ``va_demand`` -- an ``(n_servers, n_windows)`` matrix of committed
  oversubscribed (VA) demand.

``ClusterScheduler.place`` evaluates the admission checks and the best-fit
packing score for *every server at once* with a handful of broadcasted numpy
operations, instead of looping over servers and re-running per-resource
checks.  ``commit``/``release`` are row updates.  The arithmetic is the same
as the per-server formulation, so placement decisions are identical to the
reference loop (see :class:`ReferenceLoopScheduler`, kept for differential
testing and benchmarking); only the evaluation order changes, turning the
per-VM placement cost from O(servers x resources x windows) Python iterations
into a few dense matrix operations.

:class:`ServerAccount` remains the public per-server API, but is now a thin
view over one ledger row; accounts constructed standalone get a private
single-row ledger, so existing callers and tests keep working unchanged.

Best-fit by fleet size
----------------------

Every best-fit decision is the one the dense pass makes: the admission
mask and packing score of every server, first maximum wins
(:meth:`ClusterLedger.best_fit_row_dense`).  A ledger decides once, when it
is built, how to reach it.  Below :data:`_SCREENED_MIN_SERVERS` servers the
ledger is *unindexed*: ``best_fit_row`` is the dense pass, and a row update
touches only the row arrays above.  At or above it the ledger is *indexed*
(unless a capacity is degenerate, see :data:`_CAPACITY_FLOOR`): it keeps
per-row caches and a candidate index, so a placement need not reduce the
whole demand tensor, and it reaches the dense decision through a chain of
links that are each exact.  The threshold is measured, not a knob: below
it the dense pass is the faster way (table at the constant).

Row caches and the summation-order contract
-------------------------------------------

An indexed ledger maintains per-``(resource, server)`` caches --
``demand_peak`` plus the VA peak ``va_peak``, the score base
``score_base`` and ``row_used`` -- refreshed in O(n_windows) whenever a row
mutates.  The caches are *recomputed from the mutated row*, never
incremented, so they are bitwise-equal to a fresh full-matrix reduction by
construction (no drift to test away; the churn differential suite pins this
anyway).

The summation-order contract: the dense score of a server is
``sum_r[(mean_w committed + plan demand) / capacity] / positive_count``,
where the window mean and the resource sum each reduce a C-contiguous axis
in index order.  Gathering a *subset* of rows (``demand[:, rows, :]``)
yields the same contiguous per-row layout, so re-scoring only candidate
rows reproduces the full pass bitwise: the dense pass and the verify step
of both links are one kernel over a row set.  The cached score base cannot
reproduce that order (it pre-rounds ``sum_w`` before the plan term is
added), so the screened link only uses it to *screen*: an exact interval
argument (IEEE-754 addition is monotone, and the cached peaks are exact row
maxima) classifies every server as surely-fitting, surely-failing or
uncertain, and a documented tolerance band over the approximate scores
bounds which rows can possibly win.  The shortlisted rows are then
re-checked and re-scored with the exact dense arithmetic, which preserves
bitwise-identical tie-breaking; when the band covers most of the fleet
the link runs the dense pass over every row instead.

The tiered candidate index
--------------------------

The screened link above still touches every server per placement (a few
O(n_servers) vector ops).  To make placement cost sublinear in fleet size
an indexed ledger additionally maintains a *tiered candidate index*:

* used rows are bucketed into **score bands** of width :data:`_BAND_WIDTH`
  over their cached ``score_base`` (``_row_band`` / ``_band_members``);
* empty rows sit in one **min-heap per capacity kind**
  (``_empty_heaps``), so the globally lowest-index empty row of each kind
  -- the only empty row that can survive the first-max tie-break -- is a
  peek away.

Within one capacity kind the approximate score is monotone in
``score_base``, so a band has a cheap upper bound on the approximate score
of every row it contains.  At :data:`_TIERED_MIN_SERVERS` servers and above,
:meth:`ClusterLedger.best_fit_row` descends bands in decreasing upper-bound
order, stops as soon as the remaining bands provably sit below the
SCORE_TOLERANCE frontier of the best surely-fitting row, and hands the
surviving shortlist to the same exact kernel as the screened link.
Whenever the scan cannot stay sublinear (band occupancy, no fitting row
found yet) it falls back to the screened link, which can in turn fall back
to the dense pass -- each link of the chain is individually exact, so the
decision is bitwise-identical no matter where the chain stops.  The index
itself is only ever written inside the sanctioned mutators (REP007),
exactly like the row caches (REP006): ``_refresh_row_caches`` moves the
touched row between bands/heaps in the same call that refreshes its
caches, and stale heap entries are popped eagerly by the mutator so the
read path never mutates the index.
"""

# repro: hot-path  -- REP003: placement evaluates every server per VM; the
# ledger matrices are updated by row, never rebuilt or copied per plan.

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.resources import ALL_RESOURCES, Resource, ResourceVector
from repro.core.windows import VMResourcePlan
from repro.trace.hardware import ClusterConfig, ServerConfig
from repro.trace.timeseries import TimeWindowConfig
from repro.trace.vm import AllocationClass

#: Tolerance used by the admission checks (matches the seed implementation).
FIT_EPSILON = 1e-6
#: Residues at or below this magnitude after a release are snapped to zero so
#: repeated commit/release churn cannot accumulate float drift.
RESIDUE_EPSILON = 1e-9
#: The screened best-fit path scores candidates approximately from the cached
#: row sums, then re-scores every row within this band of the best
#: surely-fitting score with the exact dense arithmetic.  For servers a plan
#: fits, the approximation error is ~1e-13 (each per-resource ratio is at most
#: ~2 given the capacity floor below, across tens of 2^-53 rounding steps), so
#: the exact winner -- and every row tied with it -- always lands in the band.
SCORE_TOLERANCE = 1e-9
#: The SCORE_TOLERANCE error bound assumes positive capacities of at least
#: this size; a ledger with a positive capacity below it is never indexed,
#: so it decides every placement with the dense pass.
_CAPACITY_FLOOR = 1e-3
#: Minimum candidate-set size at which the screened path abandons the
#: shortlist and re-runs the dense evaluation (e.g. an empty cluster, where
#: every approximate score ties inside the band).
_DENSE_FALLBACK_MIN = 32
#: Width of one ``score_base`` band in the tiered candidate index.  Scores
#: are per-resource committed fractions summed over <= n_resources terms, so
#: bases live in roughly [0, n_resources] and the band count stays small.
_BAND_WIDTH = 1.0 / 64.0
#: Slack added to a band's upper edge before bounding its members'
#: approximate scores.  It swamps both the ``int(score / width)`` rounding at
#: the edge (~1e-15 at these magnitudes) and the last-ulp difference between
#: the per-kind GEMV and the gathered per-row GEMV, while staying far below
#: :data:`SCORE_TOLERANCE`, so the bound is safe without widening the band
#: frontier.
_BAND_EDGE_SLACK = 1e-9
#: Sentinel returned by the tiered scan when band occupancy makes a
#: sublinear exact answer uncertain; the caller falls back to the screened
#: O(n_servers) path (which may itself fall back to the dense path).
_TIERED_UNDECIDED = -2
#: Below this fleet size the tiered scan is pure overhead: the screened
#: link's O(n_servers) vector ops already cost less than the band-descent
#: bookkeeping, so ``best_fit_row`` skips straight to it.  Purely a
#: performance dispatch -- both links reach the same decision.
_TIERED_MIN_SERVERS = 8192
#: Below this fleet size a ledger is unindexed: ``best_fit_row`` is the dense
#: pass, and a row update refreshes no cache and no candidate index.  Purely
#: a performance dispatch -- every path reaches the same decision.  Set at
#: the measured break-even: ``place()`` plus 50% deallocate churn, in
#: microseconds per plan, median of 7 alternating runs of 4,000
#: ``build_placement_plans`` (seed 7) on ``build_scaled_bench_cluster``
#: fleets, unindexed dense pass against indexed chain (2-vCPU container):
#:
#:     servers   32   128   192   256   384   512   768  1024
#:     dense     57    89   110   154   186   220   313   407
#:     chain    109   126   124   156   146   142   165   163
_SCREENED_MIN_SERVERS = 256

#: Indices of resources inside ``ALL_RESOURCES``-ordered arrays.
_CPU_INDEX = ALL_RESOURCES.index(Resource.CPU)
_MEMORY_INDEX = ALL_RESOURCES.index(Resource.MEMORY)


def plan_demand_matrix(plan: VMResourcePlan) -> np.ndarray:
    """Stack a plan's per-resource window demands, shape ``(n_resources, n_windows)``."""
    return np.stack([plan.plans[r].window_demand for r in ALL_RESOURCES])


def _plan_screen_stats(plan_demand: np.ndarray,
                       va_window_demand: np.ndarray) -> tuple:
    """Per-resource extrema and means feeding the screened best-fit path.

    The peaks/minima are exact window maxima/minima, computed once per plan
    and shared by the tiered and screened links of the chain; the means only
    feed the approximate scores.
    """
    return (plan_demand.max(axis=1), plan_demand.min(axis=1),
            plan_demand.mean(axis=1),
            float(va_window_demand.max()), float(va_window_demand.min()))


class ClusterLedger:
    """Cluster-level matrix bookkeeping of committed scheduling demand.

    One row per server.  All state the admission checks and the packing score
    need is kept in dense arrays so the scheduler can evaluate every server
    in one vectorized pass.  ``indexed`` says whether the ledger also keeps
    the row caches and candidate index of the screened and tiered links
    (module docstring, "Best-fit by fleet size"); it is fixed at
    construction.
    """

    __slots__ = ("windows", "n_servers", "n_windows", "capacity", "demand",
                 "pa_memory", "va_demand", "row_available", "indexed",
                 "_positive", "_score_capacity", "_score_counts",
                 "_fit_threshold", "_memory_threshold", "demand_peak",
                 "va_peak", "score_base", "row_used", "_inv_capacity",
                 "_inv_counts", "_capacity_kind", "_kind_count",
                 "_kind_inv_capacity", "_kind_inv_counts", "_row_band",
                 "_band_members", "_empty_heaps")

    def __init__(self, server_configs: Sequence[ServerConfig],
                 windows: TimeWindowConfig):
        self.windows = windows
        self.n_servers = len(server_configs)
        self.n_windows = windows.windows_per_day
        capacity = np.zeros((len(ALL_RESOURCES), self.n_servers))
        for column, config in enumerate(server_configs):
            vector = config.capacity_vector()
            for row, resource in enumerate(ALL_RESOURCES):
                capacity[row, column] = vector[resource]
        self.capacity = capacity
        self.demand = np.zeros((len(ALL_RESOURCES), self.n_servers, self.n_windows))
        self.pa_memory = np.zeros(self.n_servers)
        self.va_demand = np.zeros((self.n_servers, self.n_windows))
        # Failure injection (repro.scenarios): rows flip to unavailable via
        # disable_row and are excluded from every placement path; committed
        # demand is unaffected (release still works on a disabled row).
        self.row_available = np.ones(self.n_servers, dtype=bool)
        positive = capacity > 0
        # Score statics of the dense kernel (best_fit_row_dense).
        self._positive = positive
        self._score_capacity = np.where(positive, capacity, 1.0)
        self._score_counts = np.maximum(positive.sum(axis=0), 1)
        self._fit_threshold = capacity + FIT_EPSILON
        self._memory_threshold = self._fit_threshold[_MEMORY_INDEX]
        self.indexed = (self.n_servers >= _SCREENED_MIN_SERVERS
                        and bool(np.all(capacity[positive] >= _CAPACITY_FLOOR)))
        if not self.indexed:
            return
        # Row caches (module docstring: "Row caches and the summation-order
        # contract").  Derived strictly from the row arrays above and
        # refreshed by _refresh_row_caches in the same mutation that touches
        # a row (REP006 enforces that no other code writes any of these
        # arrays).
        self.demand_peak = np.zeros((len(ALL_RESOURCES), self.n_servers))
        self.va_peak = np.zeros(self.n_servers)
        self.score_base = np.zeros(self.n_servers)
        self.row_used = np.zeros(self.n_servers, dtype=bool)
        self._inv_capacity = np.where(positive, 1.0 / self._score_capacity, 0.0)
        self._inv_counts = 1.0 / self._score_counts
        # Rows with bitwise-identical capacity columns are interchangeable
        # while empty (identical scores, identical admission outcome), so the
        # candidate shortlist only ever needs the first empty row per kind.
        self._capacity_kind = np.unique(
            capacity.T, axis=0, return_inverse=True)[1].reshape(-1)
        # Per-kind score statics for the tiered index: one representative
        # column per capacity kind (kind labels are indices into the sorted
        # unique capacity rows, and np.unique returns first occurrences, so
        # the representative is the lowest-index row of its kind).
        first_rows = np.unique(self._capacity_kind, return_index=True)[1]
        self._kind_count = len(first_rows)
        self._kind_inv_capacity = self._inv_capacity[:, first_rows]
        self._kind_inv_counts = self._inv_counts[first_rows]
        self.rebuild_candidate_index()

    def rebuild_candidate_index(self) -> None:
        """Rebuild an indexed ledger's candidate index from its row caches.

        The index is fully derived from ``row_used`` / ``row_available`` /
        ``score_base`` / ``_capacity_kind``, so a from-scratch rebuild must
        land in the same state that incremental maintenance
        (:meth:`_index_update_row`) reaches -- the churn differential suite
        pins exactly that.  This is the bootstrap path (``__init__``) and the
        sanctioned recovery hook.  Disabled rows join neither structure:
        they can never win a placement, so indexing them would only add
        screen work.
        """
        self._row_band = np.full(self.n_servers, -1, dtype=np.intp)
        self._band_members: Dict[int, Set[int]] = {}
        heaps: List[List[int]] = [[] for _ in range(self._kind_count)]
        for row in range(self.n_servers):
            if not self.row_available[row]:
                continue
            if self.row_used[row]:
                band = int(self.score_base[row] / _BAND_WIDTH)
                self._row_band[row] = band
                self._band_members.setdefault(band, set()).add(row)
            else:
                # Ascending append per kind already satisfies the heap
                # invariant; heapify keeps that independent of build order.
                heaps[self._capacity_kind[row]].append(row)
        for heap in heaps:
            heapify(heap)
        self._empty_heaps = heaps

    # ------------------------------------------------------------------ #
    # Vectorized admission checks and packing score
    # ------------------------------------------------------------------ #
    def best_fit_row_dense(self, plan_demand: np.ndarray,
                           guaranteed_memory_gb: float,
                           va_window_demand: np.ndarray,
                           rows: Union[np.ndarray, slice] = slice(None)) -> int:
        """Exact best-fit over *rows*: admission mask plus packing scores.

        Returns the winning row index, or ``-1`` when no row fits.  The mask
        is :meth:`ServerAccount.can_fit` for every row at once (every window
        of every resource fits, and so do the PA portion and the PA + VA
        backing), and the score is :meth:`ServerAccount.packing_score` as if
        the plan were committed: the window mean of the summed demand over
        capacity, averaged over the resources with positive capacity.

        *rows* is ``slice(None)`` for the dense pass over every server (an
        unindexed ledger's whole decision, and the fallback of the screened
        link) or a sorted candidate shortlist (the verify step of both
        links).  Gathered rows are C-contiguous, so the window mean and
        resource sum reduce in the same order either way (summation-order
        contract, module docstring) and a shortlist scores bitwise like the
        full pass; ascending rows keep first-max argmax on the lowest index.
        """
        hypothetical = self.demand[:, rows, :] + plan_demand[:, None, :]
        new_pa = self.pa_memory[rows] + guaranteed_memory_gb
        new_va = (self.va_demand[rows] + va_window_demand).max(axis=1)
        capacity_memory = self._memory_threshold[rows]
        fit = (np.all(hypothetical <= self._fit_threshold[:, rows, None],
                      axis=(0, 2))
               & (new_pa <= capacity_memory)
               & (new_pa + new_va <= capacity_memory)
               & self.row_available[rows])
        if not fit.any():
            return -1
        means = hypothetical.mean(axis=2)
        ratios = np.where(self._positive[:, rows],
                          means / self._score_capacity[:, rows], 0.0)
        scores = ratios.sum(axis=0) / self._score_counts[rows]
        best = int(np.argmax(np.where(fit, scores, -np.inf)))
        return best if isinstance(rows, slice) else int(rows[best])

    def _screen_rows(self, rows: Union[np.ndarray, slice],
                     guaranteed_memory_gb: float, stats: tuple) -> tuple:
        """Tri-state screen + approximate scores for a row subset.

        *rows* is a gathered index array (the tiered scan) or
        ``slice(None)`` (the full-fleet screen of
        :meth:`_best_fit_row_screened`).  The arithmetic is elementwise (no
        cross-row reductions), so each row's surely-fits / surely-fails
        classification is bitwise-identical whichever subset it is screened
        in.  The approximate scores ``(score_base + plan_mean @
        inv_capacity) * inv_count`` track the exact scores of
        :meth:`best_fit_row_dense` to within
        :data:`SCORE_TOLERANCE` for every row the plan fits, but are not
        bitwise-exact (the cached score base rounds ``sum_w`` before the
        plan term is added, and a gathered GEMV may differ from the full one in the
        last ulp) -- callers must only compare them against
        SCORE_TOLERANCE-wide margins and re-score candidates densely.
        """
        plan_peak, plan_min, plan_mean, va_peak_add, va_min_add = stats
        threshold = self._fit_threshold[:, rows]
        peaks = self.demand_peak[:, rows]
        sure_ok = np.all(peaks + plan_peak[:, None] <= threshold, axis=0)
        sure_bad = np.any(peaks + plan_min[:, None] > threshold, axis=0)
        capacity_memory = self._memory_threshold[rows]
        new_pa = self.pa_memory[rows] + guaranteed_memory_gb
        pa_ok = new_pa <= capacity_memory
        va_peak = self.va_peak[rows]
        fit_hi = (pa_ok & sure_ok
                  & (new_pa + (va_peak + va_peak_add) <= capacity_memory))
        sure_fail = (~pa_ok | sure_bad
                     | (new_pa + (va_peak + va_min_add) > capacity_memory))
        available = self.row_available[rows]
        fit_hi &= available
        sure_fail |= ~available
        approx = ((self.score_base[rows]
                   + plan_mean @ self._inv_capacity[:, rows])
                  * self._inv_counts[rows])
        return fit_hi, sure_fail, approx

    def _best_fit_row_tiered(self, plan_demand: np.ndarray,
                             guaranteed_memory_gb: float,
                             va_window_demand: np.ndarray,
                             stats: tuple) -> int:
        """Band-descent candidate search over the tiered index.

        Returns the winning row, ``-1`` when no server fits, or
        :data:`_TIERED_UNDECIDED` when the scan cannot stay sublinear --
        the caller then falls back to the screened O(n_servers) link, which
        reaches the same decision by construction.

        Within one capacity kind the approximate score
        ``(score_base + plan_term) * inv_count`` is monotone in
        ``score_base``, so a band's upper edge bounds every member's
        approximate score: ``max_k fl((band_hi + term_k) * inv_count_k)``
        with :data:`_BAND_EDGE_SLACK` absorbing edge rounding.  Bands are
        scanned in decreasing-bound order (bound is monotone in the band
        id); once every unscanned band's bound sits below
        ``best_sure - SCORE_TOLERANCE``, no unscanned row can reach the
        frontier -- the winner and every row tied with it live in scanned
        bands, because a fitting row's approximate score is within ~1e-13
        of its exact score (same argument as the screened link).  Empty
        rows contribute one candidate per capacity kind: the heap top,
        which is the lowest-index empty row of its kind, the only one that
        can survive the first-max tie-break among interchangeable rows.
        """
        plan_mean = stats[2]
        budget = max(_DENSE_FALLBACK_MIN, self.n_servers // 8)
        kind_term = plan_mean @ self._kind_inv_capacity
        chunks = []
        best_sure = -np.inf
        scanned = 0
        # Bands are buffered and screened in geometrically growing chunks:
        # a placement near the frontier resolves after one small screen,
        # while a deep descent pays O(log scanned) numpy dispatches instead
        # of one per band.  Buffered-but-unscreened rows cannot raise
        # best_sure yet, which only delays pruning -- never unsoundly prunes.
        buffered: List[int] = [heap[0] for heap in self._empty_heaps if heap]
        chunk_target = _DENSE_FALLBACK_MIN
        bands = sorted(self._band_members, reverse=True)
        position = 0
        while True:
            while position < len(bands) and len(buffered) < chunk_target:
                band = bands[position]
                if best_sure > -np.inf:
                    band_hi = (band + 1) * _BAND_WIDTH + _BAND_EDGE_SLACK
                    bound = float(((band_hi + kind_term)
                                   * self._kind_inv_counts).max())
                    if bound < best_sure - SCORE_TOLERANCE:
                        # Bounds only shrink from here on (monotone in the
                        # band id): every unscanned row is provably outside
                        # the frontier.
                        position = len(bands)
                        break
                buffered.extend(self._band_members[band])
                position += 1
            if not buffered:
                break
            scanned += len(buffered)
            if scanned > budget:
                return _TIERED_UNDECIDED
            rows = np.fromiter(buffered, np.intp, len(buffered))
            fit_hi, sure_fail, approx = self._screen_rows(
                rows, guaranteed_memory_gb, stats)
            chunks.append((rows, sure_fail, approx))
            if fit_hi.any():
                best_sure = max(best_sure, float(approx[fit_hi].max()))
            buffered = []
            chunk_target *= 2
            if position >= len(bands):
                break
        if not chunks:
            return -1
        rows = np.concatenate([chunk[0] for chunk in chunks])
        sure_fail = np.concatenate([chunk[1] for chunk in chunks])
        approx = np.concatenate([chunk[2] for chunk in chunks])
        if best_sure > -np.inf:
            keep = ~sure_fail & (approx >= best_sure - SCORE_TOLERANCE)
        else:
            keep = ~sure_fail
        candidates = np.sort(rows[keep])
        if candidates.size == 0:
            # Every used row was scanned (best_sure = -inf means no band was
            # pruned) and every empty row fails exactly like its kind's
            # representative, so this is a complete rejection proof.
            return -1
        if candidates.size > budget:
            return _TIERED_UNDECIDED
        return self.best_fit_row_dense(plan_demand, guaranteed_memory_gb,
                                       va_window_demand, candidates)

    def best_fit_row(self, plan_demand: np.ndarray, guaranteed_memory_gb: float,
                     va_window_demand: np.ndarray) -> int:
        """Exact best-fit row for a plan, or ``-1`` when no server fits.

        An unindexed ledger runs :meth:`best_fit_row_dense`.  An indexed one
        tries :meth:`_best_fit_row_tiered` first at
        :data:`_TIERED_MIN_SERVERS` servers and above (sublinear in fleet
        size); a smaller fleet, or a scan that cannot stay sublinear, runs
        :meth:`_best_fit_row_screened` (O(n_servers) screen), which itself
        runs the dense pass over every row when its shortlist degenerates.
        Every link of the chain reproduces the dense decision bitwise, so
        the chain may stop anywhere.
        """
        if not self.indexed:
            return self.best_fit_row_dense(plan_demand, guaranteed_memory_gb,
                                           va_window_demand)
        stats = _plan_screen_stats(plan_demand, va_window_demand)
        if self.n_servers >= _TIERED_MIN_SERVERS:
            row = self._best_fit_row_tiered(plan_demand, guaranteed_memory_gb,
                                            va_window_demand, stats)
            if row != _TIERED_UNDECIDED:
                return row
        return self._best_fit_row_screened(plan_demand, guaranteed_memory_gb,
                                           va_window_demand, stats)

    def _best_fit_row_screened(self, plan_demand: np.ndarray,
                               guaranteed_memory_gb: float,
                               va_window_demand: np.ndarray,
                               stats: tuple) -> int:
        """Screened best-fit over the cached row state, exact by construction.

        Three steps, each relying only on IEEE-754 addition being monotone
        (``fl(a + b)`` is non-decreasing in both arguments) and on the cached
        peaks being exact row maxima:

        1. *Screen* (:meth:`_screen_rows` over every row) in
           O(n_resources x n_servers): if
           ``fl(demand_peak + plan_peak) <= fl(capacity + eps)`` every window
           of the row fits that resource; if
           ``fl(demand_peak + plan_min) > fl(capacity + eps)`` the peak
           window fails it.  Rows proven neither way stay *uncertain*.  The
           PA term is evaluated exactly; the VA backing term is bounded the
           same way through ``va_peak``.
        2. *Band*: keep every not-surely-failing row whose approximate score
           is within :data:`SCORE_TOLERANCE` of the best surely-fitting
           row's.  The true winner (and every row tied with it) is fittable,
           so its approximate score sits within the ~1e-13 error bound of its
           exact score and cannot fall outside the band.
        3. *Verify*: :meth:`best_fit_row_dense` over the shortlisted rows,
           in ascending order, re-checks admission and re-scores them
           bitwise like the full pass.

        Runs the dense pass over every row instead when the shortlist
        degenerates to a large fraction of the fleet (e.g. an empty
        cluster, where every approximate score ties).  Only an indexed
        ledger has the caches this reads.
        """
        fit_hi, sure_fail, approx = self._screen_rows(
            slice(None), guaranteed_memory_gb, stats)
        maybe = ~sure_fail
        # fit_hi <= true fit set <= maybe (setwise); rows outside `maybe`
        # cannot fit and rows in `fit_hi` need no window re-check to count
        # as candidates, but are still re-scored below.
        if fit_hi.any():
            best_sure = approx[fit_hi].max()
            candidate_mask = maybe & (approx >= best_sure - SCORE_TOLERANCE)
        else:
            candidate_mask = maybe
        rows = np.nonzero(candidate_mask)[0]
        if rows.size == 0:
            return -1
        if rows.size > len(ALL_RESOURCES):
            # Empty rows with bitwise-identical capacity columns have
            # identical scores and admission outcomes, so only the first
            # empty candidate of each capacity kind can survive the first-max
            # tie-break; the rest are pruned before the exact re-score.  This
            # keeps the shortlist O(ties + kinds) even while most of a large
            # fleet is still empty (every same-kind empty row is banded
            # together, so the kept row is the globally lowest-index one).
            keep = self.row_used[rows]  # fancy indexing: a fresh, mutable array
            if not keep.all():
                empty_positions = np.nonzero(~keep)[0]
                first_per_kind = np.unique(
                    self._capacity_kind[rows[empty_positions]],
                    return_index=True)[1]
                keep[empty_positions[first_per_kind]] = True
                rows = rows[keep]
        if rows.size > max(_DENSE_FALLBACK_MIN, self.n_servers // 8):
            rows = slice(None)
        return self.best_fit_row_dense(plan_demand, guaranteed_memory_gb,
                                       va_window_demand, rows)

    # ------------------------------------------------------------------ #
    # Row updates
    # ------------------------------------------------------------------ #
    def _refresh_row_caches(self, row: int) -> None:
        """Recompute one row's cached peaks and score base from the row arrays.

        Does nothing on an unindexed ledger, which keeps no cache.  The
        caches are always *recomputed* from the mutated row, never
        incremented, so they stay bitwise-equal to a fresh full-matrix
        reduction (``demand.max(axis=2)`` / ``va_demand.max(axis=1)`` reduce
        the same contiguous rows in the same order) and cannot drift under
        commit/release churn; the same holds for ``score_base`` against a
        per-column recompute of its defining dot product over
        ``demand.sum(axis=2)``.
        """
        if not self.indexed:
            return
        row_demand = self.demand[:, row, :]
        row_sum = row_demand.sum(axis=1)
        self.demand_peak[:, row] = row_demand.max(axis=1)
        self.va_peak[row] = self.va_demand[row].max()
        self.score_base[row] = (row_sum / self.n_windows) @ self._inv_capacity[:, row]
        # Committed demand is non-negative (release validates residues), so a
        # zero sum/PA/VA-peak proves the whole row is exactly zero.
        self.row_used[row] = bool(row_sum.any() or self.pa_memory[row]
                                  or self.va_peak[row])
        self._index_update_row(row)

    def _index_update_row(self, row: int) -> None:
        """Move one row between the tiered-index structures after a mutation.

        Called only from :meth:`_refresh_row_caches` (REP007), so the index
        tracks ``row_used`` / ``row_available`` / ``score_base`` in the same
        call that refreshes them.  A used->empty transition pushes the row
        back onto its kind's heap; stale heap entries (rows that became used
        or unavailable while enqueued) are popped eagerly here -- the only
        place a row's usedness or availability can change -- so the read
        path can trust every heap top without mutating anything.  Disabled
        rows (:meth:`disable_row`) leave both structures and never re-enter.
        """
        old_band = int(self._row_band[row])
        if self.row_used[row] and self.row_available[row]:
            band = int(self.score_base[row] / _BAND_WIDTH)
            if band != old_band:
                if old_band >= 0:
                    members = self._band_members[old_band]
                    members.discard(row)
                    if not members:
                        del self._band_members[old_band]
                self._band_members.setdefault(band, set()).add(row)
                self._row_band[row] = band
        else:
            if old_band >= 0:
                members = self._band_members[old_band]
                members.discard(row)
                if not members:
                    del self._band_members[old_band]
                self._row_band[row] = -1
                # Seeded at __init__ and re-pushed on every used->empty
                # transition, so every currently-empty available row has an
                # entry; empty->empty refreshes (old_band < 0) push nothing,
                # so entries don't multiply under repeated asserts.
                if not self.row_used[row] and self.row_available[row]:
                    heappush(self._empty_heaps[self._capacity_kind[row]], row)
        heap = self._empty_heaps[self._capacity_kind[row]]
        while heap and (self.row_used[heap[0]]
                        or not self.row_available[heap[0]]):
            heappop(heap)

    def commit_row(self, row: int, plan: VMResourcePlan) -> None:
        for index, resource in enumerate(ALL_RESOURCES):
            self.demand[index, row, :] += plan.plans[resource].window_demand
        memory_plan = plan.plans[Resource.MEMORY]
        self.pa_memory[row] += memory_plan.guaranteed
        self.va_demand[row, :] += memory_plan.window_oversubscribed
        self._refresh_row_caches(row)

    def release_row(self, row: int, plan: VMResourcePlan) -> None:
        """Subtract a plan from a row, snapping near-zero residues to zero.

        ``commit`` adds and ``release`` subtracts floats in whatever order
        plans churn through the server, so exact cancellation is not
        guaranteed; without the snap, residues of a few ULPs accumulate and
        make servers look permanently fuller than they are.  A residue more
        negative than ``-RESIDUE_EPSILON`` cannot come from float drift -- it
        means the plan was never committed to this row, or was already
        released -- so it raises :class:`ValueError` instead of being
        silently clamped to zero (which would corrupt the accounting).  All
        residues are validated before any array is mutated, so a failed
        release leaves the ledger (and its caches) untouched.
        """
        memory_plan = plan.plans[Resource.MEMORY]
        lines = []
        for index, resource in enumerate(ALL_RESOURCES):
            line = self.demand[index, row] - plan.plans[resource].window_demand
            lowest = float(line.min(initial=0.0))
            if lowest < -RESIDUE_EPSILON:
                raise ValueError(
                    f"releasing {plan.vm_id} from server row {row} drives "
                    f"{resource.value} demand negative ({lowest:g}): the plan "
                    "was not committed here or was already released")
            lines.append(line)
        new_pa = float(self.pa_memory[row]) - memory_plan.guaranteed
        if new_pa < -RESIDUE_EPSILON:
            raise ValueError(
                f"releasing {plan.vm_id} from server row {row} drives "
                f"guaranteed memory negative ({new_pa:g}): the plan was not "
                "committed here or was already released")
        new_va = self.va_demand[row] - memory_plan.window_oversubscribed
        lowest = float(new_va.min(initial=0.0))
        if lowest < -RESIDUE_EPSILON:
            raise ValueError(
                f"releasing {plan.vm_id} from server row {row} drives VA "
                f"memory demand negative ({lowest:g}): the plan was not "
                "committed here or was already released")
        for index, line in enumerate(lines):
            line[np.abs(line) <= RESIDUE_EPSILON] = 0.0
            self.demand[index, row, :] = line
        self.pa_memory[row] = 0.0 if abs(new_pa) <= RESIDUE_EPSILON else new_pa
        new_va[np.abs(new_va) <= RESIDUE_EPSILON] = 0.0
        self.va_demand[row, :] = new_va
        self._refresh_row_caches(row)

    def assert_row_empty(self, row: int) -> None:
        """Verify a row carries no demand (called when its last plan leaves)."""
        residue = max(float(self.demand[:, row].max(initial=0.0)),
                      float(self.pa_memory[row]),
                      float(self.va_demand[row].max(initial=0.0)))
        if residue > FIT_EPSILON:
            raise AssertionError(
                f"server row {row} still carries {residue:g} committed demand "
                "after its last plan was released")
        self.demand[:, row, :] = 0.0
        self.pa_memory[row] = 0.0
        self.va_demand[row, :] = 0.0
        self._refresh_row_caches(row)

    def disable_row(self, row: int) -> None:
        """Mark a row failed: it never wins another placement.

        Failure injection (drain or crash, see
        :class:`repro.simulator.engine.FailureEvent`) removes a server from
        the candidate pool without touching its committed demand -- residents
        are the caller's problem (drains re-place them, crashes drop them),
        and :meth:`release_row` keeps working on a disabled row so the
        ledger's non-negativity invariants survive the evacuation.  The flip
        is one-way: re-enabling would have to re-derive the row's index
        placement, and no scenario needs repaired servers.
        """
        self.row_available[row] = False
        self._refresh_row_caches(row)


class ServerAccount:
    """Scheduling-time bookkeeping of the plans committed to one server.

    A thin view over one row of a :class:`ClusterLedger`.  Accounts created
    standalone (outside a :class:`ClusterScheduler`) own a private single-row
    ledger, which preserves the original standalone API.
    """

    __slots__ = ("server_id", "config", "windows", "plans", "_ledger", "_row")

    def __init__(self, server_id: str, config: ServerConfig,
                 windows: TimeWindowConfig,
                 ledger: Optional[ClusterLedger] = None, row: int = 0):
        self.server_id = server_id
        self.config = config
        self.windows = windows
        if ledger is None:
            ledger = ClusterLedger([config], windows)
            row = 0
        self._ledger = ledger
        self._row = row
        #: Plans currently placed on this server, keyed by VM id.
        self.plans: Dict[str, VMResourcePlan] = {}

    # ------------------------------------------------------------------ #
    # Capacity accessors
    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> ResourceVector:
        return self.config.capacity_vector()

    @property
    def window_demand(self) -> Dict[Resource, np.ndarray]:
        """Per-resource committed demand per window (views into the ledger)."""
        return {r: self._ledger.demand[i, self._row]
                for i, r in enumerate(ALL_RESOURCES)}

    @property
    def pa_memory_gb(self) -> float:
        """Committed guaranteed (PA) memory in GB."""
        return float(self._ledger.pa_memory[self._row])

    @property
    def va_window_demand(self) -> np.ndarray:
        """Per-window committed oversubscribed (VA) memory demand in GB."""
        return self._ledger.va_demand[self._row]

    @property
    def va_backing_gb(self) -> float:
        """Physical memory reserved for the oversubscribed pool (Eq. 4)."""
        va = self.va_window_demand
        return float(va.max()) if va.size else 0.0

    @property
    def committed_memory_backing_gb(self) -> float:
        return self.pa_memory_gb + self.va_backing_gb

    @property
    def n_vms(self) -> int:
        return len(self.plans)

    def allocated_request(self, resource: Resource) -> float:
        """Sum of the full requested allocations (what customers bought)."""
        return float(sum(p.plans[resource].requested for p in self.plans.values()))

    # ------------------------------------------------------------------ #
    # Admission checks
    # ------------------------------------------------------------------ #
    def fits_vector_check(self, plan: VMResourcePlan) -> bool:
        """The paper's windows-plus-one vector check."""
        capacity = self.capacity
        window_demand = self.window_demand
        for resource in ALL_RESOURCES:
            demand = plan.plans[resource].window_demand
            if np.any(window_demand[resource] + demand > capacity[resource] + FIT_EPSILON):
                return False
        new_pa = self.pa_memory_gb + plan.plans[Resource.MEMORY].guaranteed
        return new_pa <= capacity[Resource.MEMORY] + FIT_EPSILON

    def fits_backing_check(self, plan: VMResourcePlan) -> bool:
        """Conservative check: physical PA + multiplexed VA backing must fit."""
        capacity = self.capacity
        window_demand = self.window_demand
        for resource in ALL_RESOURCES:
            if resource is Resource.MEMORY:
                continue
            demand = plan.plans[resource].window_demand
            if np.any(window_demand[resource] + demand > capacity[resource] + FIT_EPSILON):
                return False
        memory_plan = plan.plans[Resource.MEMORY]
        new_pa = self.pa_memory_gb + memory_plan.guaranteed
        new_va = float((self.va_window_demand + memory_plan.window_oversubscribed).max())
        return new_pa + new_va <= capacity[Resource.MEMORY] + FIT_EPSILON

    def can_fit(self, plan: VMResourcePlan) -> bool:
        """The admission rule: the plan passes both checks."""
        if plan.windows.windows_per_day != self.windows.windows_per_day:
            raise ValueError("plan and server use different time window configurations")
        return self.fits_backing_check(plan) and self.fits_vector_check(plan)

    # ------------------------------------------------------------------ #
    # Commit / release
    # ------------------------------------------------------------------ #
    def commit(self, plan: VMResourcePlan) -> None:
        if plan.vm_id in self.plans:
            raise ValueError(f"VM {plan.vm_id} already placed on {self.server_id}")
        self._ledger.commit_row(self._row, plan)
        self.plans[plan.vm_id] = plan

    def release(self, vm_id: str) -> VMResourcePlan:
        try:
            plan = self.plans.pop(vm_id)
        except KeyError as exc:
            raise KeyError(f"VM {vm_id} is not placed on {self.server_id}") from exc
        self._ledger.release_row(self._row, plan)
        if not self.plans:
            self._ledger.assert_row_empty(self._row)
        return plan

    # ------------------------------------------------------------------ #
    # Packing diagnostics
    # ------------------------------------------------------------------ #
    def packing_score(self, plan: Optional[VMResourcePlan] = None) -> float:
        """Fraction of capacity committed (averaged over resources and windows).

        Higher means fuller.  When *plan* is given, the score is computed as
        if the plan were committed -- the best-fit scheduler places each VM on
        the fittable server that would become fullest, which consolidates VMs
        onto fewer servers.
        """
        capacity = self.capacity
        window_demand = self.window_demand
        scores = []
        for resource in ALL_RESOURCES:
            demand = window_demand[resource]
            if plan is not None:
                demand = demand + plan.plans[resource].window_demand
            if capacity[resource] > 0:
                scores.append(float(demand.mean()) / capacity[resource])
        return float(np.mean(scores)) if scores else 0.0

    def is_empty(self) -> bool:
        return not self.plans


def bulk_cpu_capacity_and_memory_backing(accounts: Sequence[ServerAccount]):
    """CPU capacity and committed memory backing per account, as vectors.

    When every account is a view over the same ledger (accounts of one
    :class:`ClusterScheduler`), both vectors come straight out of the ledger
    matrices; otherwise each account's property chain is walked.  The
    arithmetic (``pa + va.max()``) is identical either way, so callers such
    as the vectorized violation meter stay bitwise-equivalent to per-account
    loops.
    """
    if not accounts:
        # A drained (or zero-server) cluster has no accounts; callers such as
        # the violation meter expect empty vectors, not an IndexError.
        return np.zeros(0), np.zeros(0)
    ledger = accounts[0]._ledger
    if all(account._ledger is ledger for account in accounts):
        rows = np.fromiter((account._row for account in accounts), np.intp,
                           len(accounts))
        capacity_cpu = ledger.capacity[_CPU_INDEX, rows]
        va = ledger.va_demand[rows]
        backing = ledger.pa_memory[rows] + (va.max(axis=1) if va.size else 0.0)
        return capacity_cpu, backing
    capacity_cpu = np.array([a.capacity[Resource.CPU] for a in accounts])
    backing = np.array([a.committed_memory_backing_gb for a in accounts])
    return capacity_cpu, backing


@dataclass
class PlacementDecision:
    """Result of asking the scheduler to place one VM.

    ``preempted`` lists the spot VMs evicted while admitting a reserved VM,
    in eviction order; evictions stand even when the arrival is ultimately
    rejected (real preemption is not transactional).
    """

    vm_id: str
    accepted: bool
    server_id: Optional[str] = None
    reason: str = ""
    preempted: Tuple[str, ...] = ()


class ClusterScheduler:
    """Best-fit scheduler over the servers of one cluster.

    Placement is fully vectorized: the admission checks and the best-fit
    packing score are evaluated for all servers in one pass over the
    :class:`ClusterLedger` matrices.  Ties on the packing score resolve to
    the lowest server index, matching the reference per-server loop.

    ``decisions`` keeps only the most recent *decision_history* outcomes (a
    diagnostic ring); accept/reject totals are running counters, so neither
    grows with the number of placements.  How the ledger finds the best-fit
    row follows from the cluster's size (:meth:`ClusterLedger.best_fit_row`).
    """

    def __init__(self, cluster: ClusterConfig, windows: TimeWindowConfig,
                 decision_history: int = 256):
        self.cluster = cluster
        self.windows = windows
        server_configs = cluster.server_configs()
        self.ledger = ClusterLedger(server_configs, windows)
        self.servers: Dict[str, ServerAccount] = {}
        self._accounts: List[ServerAccount] = []
        for index, server_config in enumerate(server_configs):
            server_id = f"{cluster.cluster_id}-s{index:03d}"
            account = ServerAccount(server_id, server_config, windows,
                                    ledger=self.ledger, row=index)
            self.servers[server_id] = account
            self._accounts.append(account)
        self._placements: Dict[str, str] = {}
        # Insertion-ordered spot registry: a reserved arrival evicts the
        # oldest surviving spot VM first (dict preserves acceptance order).
        self._spot_vms: Dict[str, None] = {}
        self._accepted = 0
        self._rejected = 0
        self.decisions: Deque[PlacementDecision] = deque(maxlen=max(0, decision_history))

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def place(self, plan: VMResourcePlan,
              allocation_class: Optional[AllocationClass] = None
              ) -> PlacementDecision:
        """Place a VM plan on the best-fitting server (fullest that still fits).

        The *allocation_class* only matters for two classes: a ``SPOT`` VM
        joins the eviction queue when accepted, and a ``RESERVED`` arrival
        that finds no fitting server preempts spot VMs (oldest accepted
        first) until it fits or no spot VM remains.  Any other class, or
        none, places exactly as the class-blind best-fit search does.

        The best-fit search itself is the same arithmetic for every class
        (:meth:`ClusterLedger.best_fit_row`); the class only adds the
        eviction loop around it, so the differential twin
        (:class:`ReferenceLoopScheduler`) stays a line-for-line mirror.
        Evictions are not rolled back on final rejection: a real preemption
        pipeline kills the spot VM before the reserved VM boots, so the
        decision records them either way.
        """
        if plan.windows.windows_per_day != self.windows.windows_per_day:
            raise ValueError("plan and server use different time window configurations")
        if plan.vm_id in self._placements:
            # Silently overwriting would leak the old server's committed
            # demand forever; callers must deallocate first.
            raise ValueError(f"VM {plan.vm_id} is already placed on "
                             f"{self._placements[plan.vm_id]}")
        plan_demand = plan_demand_matrix(plan)
        memory_plan = plan.plans[Resource.MEMORY]

        def find_row() -> int:
            return self.ledger.best_fit_row(plan_demand, memory_plan.guaranteed,
                                            memory_plan.window_oversubscribed)

        row = find_row()
        preempted: List[str] = []
        if allocation_class is AllocationClass.RESERVED:
            while row < 0 and self._spot_vms:
                victim = next(iter(self._spot_vms))
                self.deallocate(victim)
                preempted.append(victim)
                row = find_row()
        if row < 0:
            decision = PlacementDecision(plan.vm_id, False, None,
                                         "no server fits",
                                         preempted=tuple(preempted))
            self._rejected += 1
        else:
            best = self._accounts[row]
            best.commit(plan)
            self._placements[plan.vm_id] = best.server_id
            if allocation_class is AllocationClass.SPOT:
                self._spot_vms[plan.vm_id] = None
            decision = PlacementDecision(plan.vm_id, True, best.server_id,
                                         preempted=tuple(preempted))
            self._accepted += 1
        if self.decisions.maxlen:
            self.decisions.append(decision)
        return decision

    def deallocate(self, vm_id: str) -> None:
        self._spot_vms.pop(vm_id, None)
        server_id = self._placements.pop(vm_id, None)
        if server_id is None:
            return
        self.servers[server_id].release(vm_id)

    def disable_server(self, server_id: str) -> None:
        """Take a failed server out of the placement pool (one-way).

        Committed demand is untouched: the caller decides what happens to
        residents (the simulation engine re-places them on a drain and drops
        them on a crash, via :meth:`deallocate`, which still works on a
        disabled server).
        """
        self.ledger.disable_row(self.servers[server_id]._row)

    # ------------------------------------------------------------------ #
    # Cluster-level statistics
    # ------------------------------------------------------------------ #
    def accepted_count(self) -> int:
        return self._accepted

    def rejected_count(self) -> int:
        return self._rejected

    def servers_in_use(self) -> int:
        return sum(1 for s in self._accounts if not s.is_empty())

    def total_allocated_request(self, resource: Resource) -> float:
        return float(sum(s.allocated_request(resource) for s in self._accounts))

    def total_capacity(self, resource: Resource) -> float:
        return float(self.ledger.capacity[ALL_RESOURCES.index(resource)].sum())

    def utilization_summary(self) -> Dict[str, float]:
        return {
            "servers_in_use": float(self.servers_in_use()),
            "servers_total": float(len(self.servers)),
            "vms_placed": float(len(self._placements)),
            "rejections": float(self.rejected_count()),
        }


class ReferenceLoopScheduler:
    """The seed per-server-loop best-fit scheduler.

    Kept as the differential-testing and benchmarking reference: it iterates
    every :class:`ServerAccount` and re-runs the scalar admission checks and
    packing score per server, exactly like the original implementation.
    :class:`ClusterScheduler` must produce identical placement decisions.
    """

    def __init__(self, cluster: ClusterConfig, windows: TimeWindowConfig):
        self.cluster = cluster
        self.windows = windows
        self.servers: Dict[str, ServerAccount] = {}
        for index, server_config in enumerate(cluster.server_configs()):
            server_id = f"{cluster.cluster_id}-s{index:03d}"
            self.servers[server_id] = ServerAccount(server_id, server_config, windows)
        self._placements: Dict[str, str] = {}
        self._spot_vms: Dict[str, None] = {}
        self._disabled: Set[str] = set()

    def _find_best(self, plan: VMResourcePlan) -> Optional[ServerAccount]:
        best_server: Optional[ServerAccount] = None
        best_score = -1.0
        for server in self.servers.values():
            if server.server_id in self._disabled:
                continue
            if not server.can_fit(plan):
                continue
            score = server.packing_score(plan)
            if score > best_score:
                best_score = score
                best_server = server
        return best_server

    def place(self, plan: VMResourcePlan,
              allocation_class: Optional[AllocationClass] = None
              ) -> PlacementDecision:
        if plan.vm_id in self._placements:
            raise ValueError(f"VM {plan.vm_id} is already placed on "
                             f"{self._placements[plan.vm_id]}")
        best_server = self._find_best(plan)
        preempted: List[str] = []
        if allocation_class is AllocationClass.RESERVED:
            while best_server is None and self._spot_vms:
                victim = next(iter(self._spot_vms))
                self.deallocate(victim)
                preempted.append(victim)
                best_server = self._find_best(plan)
        if best_server is None:
            return PlacementDecision(plan.vm_id, False, None, "no server fits",
                                     preempted=tuple(preempted))
        best_server.commit(plan)
        self._placements[plan.vm_id] = best_server.server_id
        if allocation_class is AllocationClass.SPOT:
            self._spot_vms[plan.vm_id] = None
        return PlacementDecision(plan.vm_id, True, best_server.server_id,
                                 preempted=tuple(preempted))

    def deallocate(self, vm_id: str) -> None:
        self._spot_vms.pop(vm_id, None)
        server_id = self._placements.pop(vm_id, None)
        if server_id is None:
            return
        self.servers[server_id].release(vm_id)

    def disable_server(self, server_id: str) -> None:
        self._disabled.add(server_id)


def schedule_all(scheduler: ClusterScheduler,
                 plans: Sequence[VMResourcePlan]) -> List[PlacementDecision]:
    """Place a batch of plans in order, returning every decision."""
    return [scheduler.place(plan) for plan in plans]
