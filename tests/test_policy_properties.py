"""Differential and property tests: the engine must agree with the
brute-force oracles on randomized hierarchies, and structural invariants
must hold under arbitrary operation sequences."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrbac.errors import CycleError, HrbacError, SodViolation
from hrbac.policy import Action, Permission, PolicyEngine, UserKind

from oracles import (
    check_access_oracle,
    closure_oracle,
    level_oracle,
    would_cycle_oracle,
)


RESOURCES = [f"res{i}" for i in range(8)] + ["logs-a", "logs-b"]
PATTERNS = RESOURCES + ["res*", "logs-*", "*"]
# probes at the edges of matching: not valid exact ids, a pattern's own text, a bare prefix
ODD_PROBES = ["", "a*b", "res*", "*", "logs-"]


def build_random_world(rng: random.Random, max_roles=20, max_edges=40,
                       max_users=30, max_perms=50):
    """A random DAG with users, permissions, and kinds, mirrored into
    plain dicts for the oracles."""
    engine = PolicyEngine()
    n_roles = rng.randint(1, max_roles)
    role_ids = [engine.add_role(f"role{i}") for i in range(n_roles)]

    for _ in range(rng.randint(0, max_edges)):
        senior, junior = rng.choice(role_ids), rng.choice(role_ids)
        try:
            engine.link_roles(senior, junior)
        except CycleError:
            pass

    for _ in range(rng.randint(0, max_perms)):
        engine.grant_permission(
            rng.choice(role_ids),
            Permission(rng.choice(PATTERNS), rng.choice(list(Action))),
        )

    kinds = list(UserKind)
    user_ids = []
    for i in range(rng.randint(1, max_users)):
        uid = f"user{i}"
        engine.add_user(uid, rng.choice(kinds))
        for _ in range(rng.randint(0, 3)):
            engine.assign_role(uid, rng.choice(role_ids))
        user_ids.append(uid)

    juniors = {rid: set(engine.roles[rid].juniors) for rid in role_ids}
    permissions = {
        rid: {(p.resource, p.action.value) for p in engine.roles[rid].permissions}
        for rid in role_ids
    }
    return engine, juniors, permissions, user_ids, list(RESOURCES)


def grant_and_revoke(rng: random.Random, engine: PolicyEngine,
                     permissions: dict[str, set[tuple[str, str]]], count: int) -> None:
    """``count`` random grants and revokes, applied to the engine and to
    its plain-dict mirror alike."""
    for _ in range(count):
        rid = rng.choice(sorted(permissions))
        if permissions[rid] and rng.random() < 0.5:
            resource, action = rng.choice(sorted(permissions[rid]))
            engine.revoke_permission(rid, Permission(resource, Action(action)))
            permissions[rid].discard((resource, action))
        else:
            resource, action = rng.choice(PATTERNS), rng.choice(list(Action))
            engine.grant_permission(rid, Permission(resource, action))
            permissions[rid].add((resource, action.value))


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_reachability_oracle(seed):
    rng = random.Random(seed)
    engine, juniors, _, user_ids, _ = build_random_world(rng)
    for uid in user_ids:
        expected = closure_oracle(juniors, set(engine.users[uid].roles))
        assert engine.effective_roles(uid, 0.0) == expected


@pytest.mark.parametrize("seed", range(40))
def test_check_access_matches_naive_oracle(seed):
    """Decisions agree with the oracle after random grants and revokes,
    during a batch that a ``restore`` then discards, and after it; probes
    that are not valid exact ids get a decision too."""
    rng = random.Random(seed)
    engine, juniors, permissions, user_ids, resources = build_random_world(rng)

    def agree() -> None:
        for uid in user_ids:
            user = engine.users[uid]
            for resource in rng.sample(resources, 4) + ODD_PROBES:
                for action in Action:
                    expected = check_access_oracle(
                        juniors, permissions, user.kind.value,
                        set(user.roles), resource, action.value,
                    )
                    got = engine.check_access(uid, resource, action, 0.0)
                    assert got.allowed == expected, (uid, resource, action)

    grant_and_revoke(rng, engine, permissions, 20)
    agree()
    snapshot, kept = engine.snapshot(), {rid: set(p) for rid, p in permissions.items()}
    grant_and_revoke(rng, engine, permissions, 20)
    agree()
    engine.restore(snapshot)
    permissions.clear()
    permissions.update(kept)
    agree()


@pytest.mark.parametrize("seed", range(30))
def test_levels_match_longest_path_oracle(seed):
    rng = random.Random(seed)
    engine, juniors, _, _, _ = build_random_world(rng)
    for rid in juniors:
        assert engine.role_level(rid) == level_oracle(juniors, rid)


@pytest.mark.parametrize("seed", range(30))
def test_cycle_rejection_matches_dfs_oracle(seed):
    rng = random.Random(seed)
    engine, juniors, _, _, _ = build_random_world(rng)
    role_ids = list(juniors)
    for _ in range(15):
        senior, junior = rng.choice(role_ids), rng.choice(role_ids)
        if junior in engine.roles[senior].juniors:
            continue
        should_cycle = would_cycle_oracle(juniors, senior, junior)
        try:
            engine.link_roles(senior, junior)
            cycled = False
            juniors[senior].add(junior)
        except CycleError:
            cycled = True
        except SodViolation:
            continue
        assert cycled == should_cycle
        assert engine.is_acyclic()


@pytest.mark.parametrize("seed", range(15))
def test_permission_index_agrees_with_match_semantics(seed):
    """``Role.grants``, the lookup ``check_access`` makes per role, must
    accept a probe exactly when one of the role's own permissions
    ``matches`` it, also after its record was replaced by grants and
    revokes."""
    rng = random.Random(500 + seed)
    engine, _, permissions, _, resources = build_random_world(rng)
    for _ in range(2):
        for resource in resources + [f"zz-{seed}"] + ODD_PROBES:
            for action in Action:
                for role in engine.roles.values():
                    expected = any(p.matches(resource, action) for p in role.permissions)
                    assert role.grants(resource, action) == expected, (role.id, resource)
        grant_and_revoke(rng, engine, permissions, 20)


def test_level_monotonic_along_edges():
    rng = random.Random(99)
    for _ in range(20):
        engine, juniors, _, _, _ = build_random_world(rng)
        for senior, js in juniors.items():
            for junior in js:
                assert engine.role_level(junior) >= engine.role_level(senior) + 1


class TestLeastPrivilege:
    """A user is never granted an action that no role in their closure
    holds (random probes, deny-by-default)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_probes(self, seed):
        rng = random.Random(1000 + seed)
        engine, juniors, permissions, user_ids, _ = build_random_world(rng)
        for _ in range(50):
            uid = rng.choice(user_ids)
            resource = f"probe-{rng.randint(0, 10 ** 6)}"
            action = rng.choice(list(Action))
            decision = engine.check_access(uid, resource, action, 0.0)
            if decision.allowed:
                closure = engine.effective_roles(uid, 0.0)
                held = {
                    (p, a)
                    for rid in closure
                    for p, a in permissions[rid]
                }
                assert any(
                    a == action.value and (p == resource or (p.endswith("*") and resource.startswith(p[:-1])))
                    for p, a in held
                )


class TestSodSafety:
    """Under any operation sequence, no user's effective closure contains
    both roles of a constraint."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_operation_sequences(self, seed):
        rng = random.Random(2000 + seed)
        engine = PolicyEngine()
        role_ids = [engine.add_role(f"r{i}") for i in range(8)]
        user_ids = []
        for i in range(6):
            uid = f"u{i}"
            engine.add_user(uid, rng.choice(list(UserKind)))
            user_ids.append(uid)

        now = 0.0
        for _ in range(120):
            now += rng.random() * 10
            op = rng.randrange(6)
            try:
                if op == 0:
                    engine.assign_role(rng.choice(user_ids), rng.choice(role_ids))
                elif op == 1:
                    engine.revoke_role(rng.choice(user_ids), rng.choice(role_ids))
                elif op == 2:
                    engine.link_roles(rng.choice(role_ids), rng.choice(role_ids))
                elif op == 3:
                    engine.add_sod_constraint(rng.choice(role_ids), rng.choice(role_ids))
                elif op == 4:
                    engine.delegate_role(
                        rng.choice(user_ids), rng.choice(user_ids),
                        rng.choice(role_ids), rng.random() * 50 + 1, now,
                    )
                else:
                    if engine.delegations:
                        engine.revoke_delegation(rng.choice(list(engine.delegations)))
            except HrbacError:
                pass

            for uid in user_ids:
                closure = engine.effective_roles(uid, now)
                for pair in engine.sod:
                    assert not pair <= closure, (uid, sorted(pair))


class TestDelegationBoundedness:
    @given(ttl=st.floats(min_value=1, max_value=10_000), offset=st.floats(min_value=0, max_value=20_000))
    @settings(max_examples=80)
    def test_access_only_inside_window(self, ttl, offset):
        engine = PolicyEngine()
        role = engine.add_role("R")
        engine.grant_permission(role, Permission("res", Action.READ))
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("taker", UserKind.END_USER)
        engine.assign_role("giver", role)
        engine.delegate_role("giver", "taker", role, ttl, 0.0)
        at = offset
        allowed = engine.check_access("taker", "res", Action.READ, at).allowed
        assert allowed == (at < ttl)

    def test_revoked_delegation_never_grants(self):
        engine = PolicyEngine()
        role = engine.add_role("R")
        engine.grant_permission(role, Permission("res", Action.READ))
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("taker", UserKind.END_USER)
        engine.assign_role("giver", role)
        delegation_id = engine.delegate_role("giver", "taker", role, 100, 0.0)
        engine.revoke_delegation(delegation_id)
        for at in (0.0, 1.0, 50.0, 99.0):
            assert not engine.check_access("taker", "res", Action.READ, at).allowed


class TestAcyclicity:
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40))
    @settings(max_examples=80)
    def test_hierarchy_never_cyclic(self, edges):
        engine = PolicyEngine()
        role_ids = [engine.add_role(f"r{i}") for i in range(10)]
        for a, b in edges:
            try:
                engine.link_roles(role_ids[a], role_ids[b])
            except CycleError:
                pass
        assert engine.is_acyclic()


class TestStatePersistenceRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_dump_load_preserves_decisions(self, seed):
        rng = random.Random(3000 + seed)
        engine, _, _, user_ids, resources = build_random_world(rng)
        engine.add_user("dlg-giver", UserKind.DATA_OWNER)
        rid = next(iter(engine.roles))
        engine.assign_role("dlg-giver", rid)
        engine.delegate_role("dlg-giver", user_ids[0], rid, 500, 0.0)

        reloaded = PolicyEngine.from_state(engine.dump_state())
        for uid in user_ids:
            assert reloaded.effective_roles(uid, 100.0) == engine.effective_roles(uid, 100.0)
            for resource in resources[:3]:
                for action in Action:
                    assert (
                        reloaded.check_access(uid, resource, action, 100.0)
                        == engine.check_access(uid, resource, action, 100.0)
                    )
