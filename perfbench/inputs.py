"""Seeded inputs: the IMDb database, request streams, arrivals and writes.

Everything here is a pure function of the ``--seed`` argument and of the
one generated database, so one seed always gives the same inputs.
The program under test only ever receives what these functions return.
Draws use :class:`random.Random` seeded with a string, which is stable
across processes and Python versions, so the benchmark's randomness does
not depend on the generators inside the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datasets import imdb
from repro.relational.database import Database
from repro.workloads import imdb_queries

#: Example-set sizes |E| are drawn uniformly from this inclusive range.
MIN_EXAMPLES, MAX_EXAMPLES = 2, 20

#: Distinct example sets pre-drawn for a closed-loop read stream; more
#: than one client completes in a run, so the stream never runs dry.
STREAM_SETS = 12000

#: Example sets whose entities all share more than this many cast
#: partners (movies for persons, persons for movies) are skipped: the
#: program abduces one filter per shared partner, and a query with
#: hundreds of filters runs for minutes (see README.md).
MAX_SHARED_PARTNERS = 32

#: imdb-hot: distinct sets in the popular pool and the Zipf exponent of
#: the draws over it.  The pool stays below the 256-entry result cache.
HOT_POOL_SETS = 192
HOT_ZIPF = 0.8

#: imdb-writes: rows inserted per write batch, and the share of them
#: that go to persons the read stream asks about.
WRITE_BATCH_ROWS = 24
WRITE_SKEW = 0.8


@dataclass(frozen=True)
class Intent:
    """One registry intent with its ground truth on the generated data."""

    qid: str
    entity_table: str
    keys: frozenset
    values: Tuple[str, ...]
    """Distinct display values of the intended result (example pool)."""


def make_database(size: Optional[imdb.ImdbSize] = None) -> Database:
    """The IMDb database every run serves (base scale by default).

    The data is the same for every ``--seed``: the generator's seed moves
    the activity of its most active persons, and with it the latency tail,
    by more than any bound a regression check could use (see README.md).
    """
    return imdb.generate(size or imdb.ImdbSize.base())


def clone_database(db: Database) -> Database:
    """A fresh copy built through the public loading API.

    Building the αDB augments a database in place, so every set-up needs
    its own copy.  Copying row by row gives every relation a new identity
    stamp, which a pickled copy would not.
    """
    out = Database(db.name)
    for name in db.table_names():
        relation = db.relation(name)
        out.create_table(relation.schema)
        out.bulk_load(name, relation.rows())
    return out


def intents(db: Database) -> List[Intent]:
    """The 16 IMDb registry intents with at least two example values."""
    out = []
    for workload in imdb_queries.build_registry():
        values = tuple(dict.fromkeys(workload.ground_truth_examples(db)))
        if len(values) < MIN_EXAMPLES:
            continue
        out.append(
            Intent(
                qid=workload.qid,
                entity_table=workload.entity_table,
                keys=frozenset(workload.ground_truth_keys(db)),
                values=values,
            )
        )
    return out


class CastPartners:
    """Who appears with whom in ``castinfo``, by display value."""

    def __init__(self, db: Database) -> None:
        cast = db.relation("castinfo")
        self._partners: Dict[str, Dict[Any, set]] = {"person": {}, "movie": {}}
        for person, movie in zip(cast.column("person_id"), cast.column("movie_id")):
            self._partners["person"].setdefault(person, set()).add(movie)
            self._partners["movie"].setdefault(movie, set()).add(person)
        self._keys: Dict[str, Dict[str, List[Any]]] = {}
        for table, display in (("person", "name"), ("movie", "title")):
            relation = db.relation(table)
            by_value: Dict[str, List[Any]] = {}
            for key, value in zip(relation.column("id"), relation.column(display)):
                by_value.setdefault(value, []).append(key)
            self._keys[table] = by_value

    def shared(self, entity_table: str, examples: Sequence[str]) -> int:
        """Partners every example (any entity with that display value)
        is cast with."""
        partners = self._partners[entity_table]
        common = None
        for value in examples:
            mine = set()
            for key in self._keys[entity_table].get(value, ()):
                mine |= partners.get(key, set())
            common = mine if common is None else common & mine
        return len(common or ())


def example_sets(
    intent_list: Sequence[Intent],
    partners: CastPartners,
    seed: int,
    stream: str,
    count: int,
) -> Tuple[List[Tuple[str, List[str]]], int]:
    """``count`` distinct (qid, examples) draws, and how many draws were
    skipped for sharing more than :data:`MAX_SHARED_PARTNERS` partners.

    Intents are dealt from a deck holding each intent once, shuffled
    anew when empty, so every intent is asked about equally often and the
    seed does not move the mix (a draw that repeats a set or is skipped
    uses up its intent's turn).  Each draw then picks a size uniformly in
    [MIN_EXAMPLES, MAX_EXAMPLES] (capped by the intent's result size) and
    that many distinct values of the intended result.  No set repeats.
    """
    rng = random.Random(f"perfbench:{seed}:{stream}")
    seen = set()
    out: List[Tuple[str, List[str]]] = []
    skipped = 0
    deck: List[Intent] = []
    while len(out) < count:
        if len(seen) > 50 * count:
            raise RuntimeError(f"cannot draw {count} distinct example sets")
        if not deck:
            deck = list(intent_list)
            rng.shuffle(deck)
        intent = deck.pop()
        size = rng.randint(MIN_EXAMPLES, min(MAX_EXAMPLES, len(intent.values)))
        examples = rng.sample(intent.values, size)
        key = frozenset(examples)
        if key in seen:
            continue
        seen.add(key)
        if partners.shared(intent.entity_table, examples) > MAX_SHARED_PARTNERS:
            skipped += 1
            continue
        out.append((intent.qid, examples))
    return out, skipped


def request(request_id: int, examples: Sequence[str]) -> Dict[str, Any]:
    """One discovery request in the serving schema."""
    return {"id": request_id, "examples": list(examples)}


def zipf_draws(pool_size: int, count: int, seed: int) -> List[int]:
    """``count`` pool indices, Zipf-skewed toward low ranks."""
    rng = random.Random(f"perfbench:{seed}:zipf")
    weights = [1.0 / (rank + 1) ** HOT_ZIPF for rank in range(pool_size)]
    return rng.choices(range(pool_size), weights=weights, k=count)


def poisson_arrivals(rate: float, horizon: float, seed: int) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process up to ``horizon``."""
    rng = random.Random(f"perfbench:{seed}:arrivals")
    out: List[float] = []
    at = rng.expovariate(rate)
    while at < horizon:
        out.append(at)
        at += rng.expovariate(rate)
    return out


def write_batches(
    db: Database,
    intent_list: Sequence[Intent],
    seed: int,
    count: int,
) -> List[List[Tuple[int, int, int]]]:
    """``count`` batches of new ``castinfo`` rows (person, movie, role).

    A share of :data:`WRITE_SKEW` of the rows go to persons in the
    ground truth of the person intents, the persons the read stream asks
    about; the rest go to persons drawn uniformly.  Row ids are assigned
    when a batch is applied (:func:`apply_batch`).
    """
    rng = random.Random(f"perfbench:{seed}:writes")
    asked = sorted(
        {key for intent in intent_list if intent.entity_table == "person"
         for key in intent.keys}
    )
    persons = sorted(db.relation("person").column("id"))
    movies = sorted(db.relation("movie").column("id"))
    roles = sorted(db.relation("roletype").column("id"))
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(WRITE_BATCH_ROWS):
            pool = asked if rng.random() < WRITE_SKEW else persons
            batch.append(
                (rng.choice(pool), rng.choice(movies), rng.choice(roles))
            )
        batches.append(batch)
    return batches


def apply_batch(db: Database, batch: Sequence[Tuple[int, int, int]]) -> None:
    """Insert one batch into ``castinfo`` with fresh sequential ids."""
    next_id = max(db.relation("castinfo").column("id")) + 1
    db.bulk_load(
        "castinfo",
        [(next_id + i, person, movie, role)
         for i, (person, movie, role) in enumerate(batch)],
    )
