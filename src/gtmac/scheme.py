"""Randomized elimination scheme for detecting active users on a shared channel.

A population of ``total_nodes`` nodes contains exactly ``k`` active ones.  The
receiver maintains a potential set P (initially everyone) and repeats, for a
budget of slots:

1. a chosen set is drawn -- every node joins independently with probability p,
   using common randomness shared by all parties;
2. each node transmits the bit "I am active AND I was chosen";
3. the receiver learns (possibly through a noisy channel code) the disjunction
   of all transmitted bits;
4. on a decoded ``True`` the receiver discards the slot, on a decoded
   ``False`` it removes every chosen node from P.

In the node-level run every node set is a bool vector over the nodes -- a
row of the 0/1 test matrix: slot ``i``'s chosen set is drawn from
:func:`slot_rng`, and step 4 is ``P & ~chosen`` (:func:`receiver_update`).
:func:`run_scheme` returns the final P as such a vector.

With the error-free disjunction the active nodes are never removed, and the
number of lingering inactive nodes shrinks geometrically in expectation (see
:mod:`gtmac.bounds`).  The per-slot choice probability that maximises the
shrink rate is ``1/(k+1)``.

Two executions are provided: :func:`run_scheme` simulates every node
individually (and accepts any disjunction oracle: an object whose
``decode_block(senders)`` returns one bool per slot, e.g. a noisy channel
code); it is the reference for
:func:`gtmac.harness.end_to_end_trial`, which draws and decodes only the
per-slot sender counts, for a block of trials at once.
The surplus kernel samples only the surplus-size process, which is
distributed identically when the oracle is error-free.  The kernel
has two entry points over a block of independent runs:
:func:`sample_slots_until_exact` draws the slots until exact recovery in O(1)
per run from its exact law, and the step kernel advances the surplus of
every run slot by slot (:func:`surplus_steps`); :func:`run_scheme_fast` is
the single-run form of the latter and returns the surplus path as a tuple of
ints.  The runs of a block are exchangeable, so
the step kernel keeps only the law of each slot's multiset of surpluses, not
which run holds which surplus.  It steps a compact vector of the live runs
(surplus above 0) and drops a run once it is exact, so no per-slot work
touches an exact run: it draws one uniform per live run, and binomials only
for the useful ones, in ascending order of their surplus.
:func:`surplus_steps` pads that vector with zeros to the block's length;
:func:`gtmac.harness.expectation_trace` adds it, as it is, into exact int sums.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator

import numpy as np

from ._ranges import check

__all__ = [
    "Population",
    "SchemeConfig",
    "SlotOutcome",
    "IdealDisjunctionOracle",
    "optimal_choice_probability",
    "receiver_update",
    "run_scheme",
    "run_scheme_fast",
    "slot_rng",
    "sample_slots_until_exact",
    "surplus_steps",
]


def optimal_choice_probability(k: int) -> float:
    """Choice probability maximising the single-slot removal rate p*(1-p)**k.

    For ``k`` active nodes the probability that a slot is *useful* (no active
    node chosen) times the marginal removal chance of an inactive node is
    ``p * (1-p)**k``; differentiation gives the maximiser ``1/(k+1)``.
    """
    check("k", k)
    return 1.0 / (k + 1)


class Population(namedtuple("Population", "total_nodes active_set")):
    """A set of nodes labelled ``0..total_nodes-1`` with a nonempty active subset.

    ``active_set`` is stored as a frozenset of the node labels.
    """

    __slots__ = ()

    def __new__(cls, total_nodes: int, active_set: Iterable[int]):
        check("total_nodes", total_nodes)
        active_set = frozenset(active_set)
        check("k", len(active_set))
        for node in active_set:
            if not (0 <= node < total_nodes):
                raise ValueError(f"active node {node} outside 0..{total_nodes - 1}")
        return super().__new__(cls, total_nodes, active_set)

    def active_mask(self) -> np.ndarray:
        """Boolean vector, entry ``i`` true iff node ``i`` is active."""
        mask = np.zeros(self.total_nodes, dtype=bool)
        mask[sorted(self.active_set)] = True
        return mask


class SchemeConfig(namedtuple("SchemeConfig",
                              "choice_probability slot_budget master_seed")):
    """Run parameters: per-slot choice probability, slot budget, master seed.

    ``choice_probability`` may take the degenerate boundary values 0 (nothing
    is ever removed) and 1 (every slot is discarded).  Out-of-range or NaN
    values are construction errors -- nothing is clamped.
    """

    __slots__ = ()

    def __new__(cls, choice_probability: float, slot_budget: int, master_seed: int):
        choice_probability = float(check("p", choice_probability))
        check("slots", slot_budget)
        check("master_seed", master_seed)
        return super().__new__(cls, choice_probability, slot_budget, master_seed)


class SlotOutcome(namedtuple("SlotOutcome", "any_active_chosen decoded_disjunction")):
    """Per-slot trace entry of the node-level simulation.

    Slot ``i``'s chosen set is not stored: it is
    ``slot_rng(master_seed, i).random(total_nodes) < choice_probability``.
    """

    __slots__ = ()


class IdealDisjunctionOracle:
    """Error-free disjunction: a slot is true iff somebody sent."""

    def decode_block(self, senders: np.ndarray) -> np.ndarray:
        return np.asarray(senders) > 0


def slot_rng(master_seed: int, slot_index: int) -> np.random.Generator:
    """Common-randomness stream for one slot.

    Derived counter-style as ``SeedSequence((master_seed, slot_index))`` so
    that slot ``i``'s draws depend only on the master seed and ``i`` -- every
    party can reproduce the chosen set without seeing the trace history.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, slot_index))))


def receiver_update(potential: np.ndarray, chosen: np.ndarray,
                    decoded_disjunction: bool) -> np.ndarray:
    """One elimination step on the potential set P, a bool vector over the nodes.

    Decoded true: somebody (apparently) active was chosen -- P is returned
    as is.  Decoded false: nobody active was chosen -- every chosen node is
    cleared, including chosen nodes that were already cleared earlier (a
    no-op for them), and a new vector is returned.  With a noisy oracle a
    false decode of a slot that did contain an active transmitter evicts
    that node; the caller sees this as ``|P|`` below k or a failed final
    comparison with the active mask.
    """
    if decoded_disjunction:
        return potential
    return potential & ~chosen


def run_scheme(population: Population, config: SchemeConfig,
               oracle) -> tuple[np.ndarray, list[SlotOutcome]]:
    """Node-level simulation of the full scheme.

    Per slot: derive the slot RNG from the master seed, draw the chosen mask,
    count the active nodes chosen -- the slot's senders, since an inactive
    node always sends 0 -- decode the disjunction through ``oracle``, and apply
    :func:`receiver_update`.  An oracle is any object whose
    ``decode_block(senders)`` maps the slots' sender counts to one decoded
    bool per slot, e.g. :class:`IdealDisjunctionOracle` or
    :class:`gtmac.channel.RepetitionDisjunctionOracle`.  Because transmit bits
    never depend on the receiver's state, all slots go to the oracle as one
    block -- which is what lets a block channel code stand in for the ideal
    disjunction.

    Returns the final potential set as a bool vector over the nodes (entry
    ``i`` true iff node ``i`` is still potentially active) plus one
    :class:`SlotOutcome` per slot.  The run is a pure function of
    ``(population, config, oracle)``.
    """
    total = population.total_nodes
    budget = config.slot_budget
    active = np.array(sorted(population.active_set))
    chosen = np.empty((budget, total), dtype=bool)
    senders = np.empty(budget, dtype=np.int64)
    for i in range(budget):
        chosen[i] = slot_rng(config.master_seed, i).random(total) < config.choice_probability
        senders[i] = np.count_nonzero(chosen[i, active])

    decoded = np.asarray(oracle.decode_block(senders), dtype=bool)
    if decoded.shape != (budget,):
        raise ValueError("oracle returned wrong number of decoded slots")

    potential = np.ones(total, dtype=bool)
    for i in range(budget):
        potential = receiver_update(potential, chosen[i], bool(decoded[i]))
    outcomes = [SlotOutcome(any_active_chosen=bool(count), decoded_disjunction=bool(bit))
                for count, bit in zip(senders, decoded)]
    return potential, outcomes


# --- surplus kernel ------------------------------------------------------------
#
# Under the error-free oracle only the surplus M matters.  A slot is useful
# (no active node chosen) with probability r = (1-p)**k; in a useful slot each
# surviving inactive node is removed independently with probability p.  So
# inactive node j leaves after a Geometric(p) number of useful slots, the
# potential set is exact after G = max_j Geometric(p) useful slots, and the
# slots until exact are T = G + NegBin(G, r) (G useful slots plus the discarded
# slots before the G-th useful one).  This is COMP under a Bernoulli test
# design.

_POISSON_MEAN_LIMIT = 2.0**62  # Poisson means past this would overflow int64 draws


def sample_slots_until_exact(n_inactive: int, k: int, p: float, slot_cap: int,
                             rng: np.random.Generator, count: int) -> np.ndarray:
    """Slots until the potential set is exact, for ``count`` independent runs.

    Returns an int64 array with one entry per run; -1 marks a run still
    inexact after ``slot_cap`` slots (censored).  O(1) work per run: G is
    drawn by inverse CDF, ``G = ceil(log(1 - U**(1/N)) / log(1-p))``, clipped
    at ``slot_cap + 1`` (a clipped run is censored), and the discarded slots
    as a gamma-Poisson mixture, which is NegBin(G, r).  Draw layout: ``count``
    uniforms, then ``count`` gammas, then ``count`` Poisson variates.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    check("slot_cap", slot_cap)
    if n_inactive == 0:
        return np.zeros(count, dtype=np.int64)
    useful_prob = (1.0 - p) ** k
    if p == 0.0 or useful_prob == 0.0:  # nothing is ever removed
        return np.full(count, -1, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        g = np.ceil(np.log(-np.expm1(np.log(rng.random(count)) / n_inactive))
                    / np.log1p(-p))
        g = np.clip(g, 1.0, slot_cap + 1.0).astype(np.int64)
        mean_discarded = rng.standard_gamma(g) * ((1.0 - useful_prob) / useful_prob)
    beyond = ~(mean_discarded <= _POISSON_MEAN_LIMIT)
    slots = g + rng.poisson(np.where(beyond, 0.0, mean_discarded))
    slots[beyond | (slots > slot_cap)] = -1
    return slots


def surplus_steps(n_inactive: int, k: int, p: float, slots: int,
                  rng: np.random.Generator, count: int) -> Iterator[np.ndarray]:
    """Surplus of ``count`` independent runs after 0, 1, ..., ``slots`` slots.

    Yields ``slots + 1`` int64 vectors of length ``count``, advancing every
    run by one slot per vector.  A vector holds the block's surpluses in no
    fixed order: the live runs (surplus > 0) of :func:`_live_steps` in entry
    order, then a 0 for each exact run.  Each slot the useful runs trade
    places, sorted by surplus.  The runs are exchangeable, so the joint law
    of the slots' multisets of surpluses -- and of any sum over the runs --
    is that of ``count`` independent chains.

    Draw layout per slot: one uniform per live run, in entry order (a run's
    slot is discarded when its uniform is below ``1 - (1-p)**k``), then
    Binomial(surplus, p) for each useful live run, in ascending order of
    surplus; exact runs draw nothing, and discarded runs no binomial.  With
    ``count = 1`` that is one uniform per slot while the run is inexact, and
    one binomial per useful slot.  Once every run is exact no further draws
    are made.  Every vector is a new array.
    """
    check("n_inactive", n_inactive)
    check("k", k)
    check("p", p)
    check("slots", slots)
    return (np.concatenate((live, np.zeros(count - live.size, dtype=np.int64)))
            for live in _live_steps(n_inactive, k, p, slots, rng, count))


def _live_steps(n_inactive, k, p, slots, rng, count):
    """The live runs' surpluses after 0, 1, ..., ``slots`` slots, unchecked.

    Yields one int64 vector per slot, in entry order: a run leaves it when
    its surplus reaches 0, and the others keep their order, so the vector is
    the nonzero entries of :func:`surplus_steps`' vector.  The vector is
    updated in place by the next slot, so a caller reads it before asking
    for the next; once it is empty the same empty vector is yielded for the
    remaining slots.
    """
    discard_prob = 1.0 - (1.0 - p) ** k
    live = np.full(count if n_inactive else 0, n_inactive, dtype=np.int64)
    yield live
    for done in range(slots):
        if not live.size:
            yield from itertools.repeat(live, slots - done)
            return
        useful = np.flatnonzero(rng.random(live.size) >= discard_prob)
        # runs are exchangeable, so sorting the useful ones changes no law of
        # the block; equal counts side by side let numpy keep its set-up
        moved = live[useful]
        moved.sort()
        moved -= rng.binomial(moved, p)
        live[useful] = moved
        if not moved.all():
            live = live[live > 0]
        yield live


def run_scheme_fast(n_inactive: int, k: int, p: float, slots: int,
                    seed: int) -> tuple[int, ...]:
    """The surplus after 0, 1, ..., ``slots`` slots of one run, as ints.

    Under the error-free oracle the surplus M evolves as a Markov chain: with
    probability ``1 - (1-p)**k`` some active node is chosen (slot discarded,
    M unchanged); otherwise every surviving inactive node is independently
    chosen with probability p, so the number removed is Binomial(M, p).  The
    path has exactly the distribution of ``|P_i| - k`` under
    :func:`run_scheme` with the ideal oracle, at a per-slot cost independent
    of the population size.

    This is :func:`surplus_steps` for a single run, drawing from
    ``numpy.random.default_rng(seed)``, ``seed`` a 64-bit unsigned int: per
    slot until the run is exact one uniform, then one binomial when the slot
    is useful.
    """
    rng = np.random.default_rng(check("master_seed", seed))
    return tuple(np.concatenate(list(surplus_steps(n_inactive, k, p, slots, rng, 1))).tolist())
