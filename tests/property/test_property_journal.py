"""Property-based tests: journal ring, replay equivalence, chaos replay."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.serving.journal import (
    ShardJournal,
    apply_entry,
    store_digest,
)
from repro.serving.store import InMemoryVectorStore
from repro.serving.transport.chaos import ChaosSchedule

DIMENSION = 3
HOST_POOL = [f"h{i}" for i in range(6)]

# One mutation: (kind, host-pool index, value seed). ``kind`` maps to
# put_many / update_many / delete; the value seed makes put vectors
# deterministic functions of the draw, so replays are comparable.
mutations = st.lists(
    st.tuples(
        st.sampled_from(["put_many", "update_many", "delete"]),
        st.integers(0, len(HOST_POOL) - 1),
        st.integers(0, 1_000_000),
    ),
    min_size=1,
    max_size=40,
)


def vectors_for(value_seed):
    rng = np.random.default_rng(value_seed)
    return (
        rng.normal(size=(1, DIMENSION)),
        rng.normal(size=(1, DIMENSION)),
    )


def apply_mutation(store, journal, mutation):
    """Apply one drawn mutation to a store, journaling it like a server."""
    kind, host_index, value_seed = mutation
    host_id = HOST_POOL[host_index]
    if kind == "delete":
        store.delete(host_id)
        journal.append("delete", [host_id])
    else:
        outgoing, incoming = vectors_for(value_seed)
        if kind == "update_many" and host_id not in store:
            # update_many rejects unknown hosts on a real server; model
            # the same precondition by registering first.
            kind = "put_many"
        store.put_many([host_id], outgoing, incoming)
        journal.append(kind, [host_id], outgoing, incoming)


class TestRingProperties:
    @given(ops=mutations)
    @settings(max_examples=50, deadline=None)
    def test_seqs_are_strictly_monotone(self, ops):
        journal = ShardJournal(capacity=8)
        store = InMemoryVectorStore(DIMENSION)
        for mutation in ops:
            apply_mutation(store, journal, mutation)
        retained = [entry.seq for entry in journal._ring]
        assert retained == sorted(set(retained))
        assert journal.high_water == len(ops)
        assert journal.appended == len(ops)

    @given(ops=mutations, capacity=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_trim_and_truncation_semantics(self, ops, capacity):
        journal = ShardJournal(capacity=capacity)
        store = InMemoryVectorStore(DIMENSION)
        for mutation in ops:
            apply_mutation(store, journal, mutation)
        total = len(ops)
        expected_first = max(1, total - capacity + 1)
        assert journal.first_seq == expected_first
        assert journal.evicted == expected_first - 1
        for since in range(0, total + 1):
            entries, truncated = journal.entries_since(since, limit=total + 1)
            # Truncated exactly when an entry above ``since`` was evicted.
            assert truncated == (since < expected_first - 1)
            assert [e.seq for e in entries] == [
                seq
                for seq in range(expected_first, total + 1)
                if seq > since
            ]


class TestReplayEquivalence:
    @given(ops=mutations, data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_replay_from_any_seq_matches_direct_application(
        self, ops, data
    ):
        """prefix(ops[:s]) + journal replay of the rest == all of ops."""
        journal = ShardJournal(capacity=len(ops) + 1)
        direct = InMemoryVectorStore(DIMENSION)
        for mutation in ops:
            apply_mutation(direct, journal, mutation)

        split = data.draw(st.integers(0, len(ops)), label="split")
        replica = InMemoryVectorStore(DIMENSION)
        prefix_journal = ShardJournal(capacity=len(ops) + 1)
        for mutation in ops[:split]:
            apply_mutation(replica, prefix_journal, mutation)

        entries, truncated = journal.entries_since(split, limit=len(ops) + 1)
        assert not truncated
        for entry in entries:
            apply_entry(replica, entry)
        assert store_digest(replica) == store_digest(direct)

    @given(ops=mutations)
    @settings(max_examples=30, deadline=None)
    def test_disk_round_trip_replays_bit_equal(self, ops, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("journal"))
        journal = ShardJournal(capacity=len(ops) + 1, directory=directory)
        direct = InMemoryVectorStore(DIMENSION)
        for mutation in ops:
            apply_mutation(direct, journal, mutation)
        journal.close()

        reloaded = ShardJournal(capacity=len(ops) + 1, directory=directory)
        assert reloaded.high_water == journal.high_water
        replica = InMemoryVectorStore(DIMENSION)
        reloaded.replay_into(replica)
        assert store_digest(replica) == store_digest(direct)


digest_ids = st.lists(
    st.one_of(st.text(min_size=1, max_size=6), st.integers(-500, 500)),
    min_size=1,
    max_size=8,
    unique_by=repr,
)


def digest_store(ids, outgoing, incoming, order=None):
    store = InMemoryVectorStore(DIMENSION)
    for row in order if order is not None else range(len(ids)):
        store.put_many([ids[row]], outgoing[row : row + 1], incoming[row : row + 1])
    return store


class TestDigestProperties:
    """Equal digests mean bit-equal content: one flipped bit of a vector,
    or one changed character of an id, changes the digest; the order
    the hosts arrived in does not."""

    @given(ids=digest_ids, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_insertion_order_does_not_matter(self, ids, seed, data):
        outgoing, incoming = np.random.default_rng(seed).normal(
            size=(2, len(ids), DIMENSION)
        )
        order = data.draw(st.permutations(range(len(ids))))
        assert store_digest(digest_store(ids, outgoing, incoming)) == (
            store_digest(digest_store(ids, outgoing, incoming, order))
        )

    @given(ids=digest_ids, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_flipped_vector_bit_changes_the_digest(self, ids, seed, data):
        outgoing, incoming = np.random.default_rng(seed).normal(
            size=(2, len(ids), DIMENSION)
        )
        before = store_digest(digest_store(ids, outgoing, incoming))
        flipped = [outgoing.copy(), incoming.copy()]
        matrix = data.draw(st.sampled_from(flipped))
        row = data.draw(st.integers(0, len(ids) - 1))
        column = data.draw(st.integers(0, DIMENSION - 1))
        bit = data.draw(st.integers(0, 63))
        matrix.view(np.uint64)[row, column] ^= np.uint64(1 << bit)
        assert store_digest(digest_store(ids, *flipped)) != before

    @given(ids=digest_ids, seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_changed_id_character_changes_the_digest(self, ids, seed, data):
        outgoing, incoming = np.random.default_rng(seed).normal(
            size=(2, len(ids), DIMENSION)
        )
        before = store_digest(digest_store(ids, outgoing, incoming))
        row = data.draw(st.integers(0, len(ids) - 1))
        original = ids[row]
        if isinstance(original, int):
            changed = data.draw(st.integers(-500, 500).filter(original.__ne__))
        else:
            at = data.draw(st.integers(0, len(original) - 1))
            character = data.draw(st.characters().filter(original[at].__ne__))
            changed = original[:at] + character + original[at + 1 :]
        renamed = [*ids[:row], changed, *ids[row + 1 :]]
        assume(len(set(renamed)) == len(renamed))
        assert store_digest(digest_store(renamed, outgoing, incoming)) != before


class TestChaosDeterminism:
    @given(
        seed=st.integers(0, 2**31),
        probabilities=st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0),
            st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        ),
        ops=st.lists(
            st.sampled_from(["point", "put_many", "delete", "health"]),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_seed_same_ops_same_decisions(self, seed, probabilities, ops):
        drop, delay, duplicate, refuse = probabilities
        schedules = [
            ChaosSchedule(
                seed=seed, drop=drop, delay=delay,
                duplicate=duplicate, refuse_writes=refuse,
            )
            for _ in range(2)
        ]
        for op in ops:
            schedules[0].decide(op)
            schedules[1].decide(op)
        assert schedules[0].history == schedules[1].history
        # reset() rewinds to the identical stream.
        schedules[0].reset()
        replayed = [schedules[0].decide(op) for op in ops]
        assert replayed == schedules[1].history
