"""Unit tests for the policy engine operations."""

from __future__ import annotations

import dataclasses
import functools

import pytest

from hrbac.errors import (
    ConflictExists,
    CycleError,
    NotAssigned,
    NotHeld,
    SodViolation,
    UnknownDelegation,
    UnknownRole,
    UnknownUser,
    ValidationError,
)
from hrbac.policy import (
    Action,
    DecisionReason,
    Permission,
    PolicyEngine,
    Role,
    UserKind,
)

T0 = 1000.0


@pytest.fixture
def engine() -> PolicyEngine:
    return PolicyEngine()


def chain(engine: PolicyEngine) -> tuple[str, str, str]:
    eng = engine.add_role("Engineer")
    mgr = engine.add_role("Manager", [eng])
    ceo = engine.add_role("CEO", [mgr])
    return ceo, mgr, eng


class TestHierarchy:
    def test_add_leaf_role(self, engine):
        rid = engine.add_role("Engineer")
        assert rid in engine.roles
        assert engine.role_level(rid) == 0

    def test_add_role_with_junior_inherits(self, engine):
        eng = engine.add_role("Engineer")
        mgr = engine.add_role("Manager", [eng])
        assert eng in engine.role_closure(mgr)

    def test_add_role_unknown_junior(self, engine):
        with pytest.raises(UnknownRole):
            engine.add_role("X", ["nonexistent"])

    def test_link_roles_direct_edge(self, engine):
        mgr = engine.add_role("Manager")
        ceo = engine.add_role("CEO")
        engine.link_roles(ceo, mgr)
        assert mgr in engine.roles[ceo].juniors

    def test_link_cycle_rejected(self, engine):
        ceo, mgr, eng = chain(engine)
        with pytest.raises(CycleError):
            engine.link_roles(eng, ceo)

    def test_self_link_rejected(self, engine):
        rid = engine.add_role("R")
        with pytest.raises(CycleError):
            engine.link_roles(rid, rid)

    def test_relink_existing_edge_is_noop(self, engine):
        ceo, mgr, _ = chain(engine)
        engine.link_roles(ceo, mgr)
        assert engine.is_acyclic()

    def test_link_unknown_role(self, engine):
        rid = engine.add_role("R")
        with pytest.raises(UnknownRole):
            engine.link_roles(rid, "ghost")

    def test_levels_along_chain(self, engine):
        ceo, mgr, eng = chain(engine)
        assert engine.role_level(ceo) == 0
        assert engine.role_level(mgr) == 1
        assert engine.role_level(eng) == 2

    def test_level_in_diamond(self, engine):
        eng = engine.add_role("Engineer")
        a = engine.add_role("A", [eng])
        b = engine.add_role("B", [eng])
        engine.add_role("CEO", [a, b])
        assert engine.role_level(eng) == 2

    def test_level_unknown_role(self, engine):
        with pytest.raises(UnknownRole):
            engine.role_level("ghost")


class TestPermissions:
    def test_grant_enables_access(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        engine.grant_permission(eng, Permission("filea", Action.READ))
        assert engine.check_access("u", "filea", Action.READ, T0).allowed

    def test_duplicate_grant_idempotent(self, engine):
        eng = engine.add_role("Engineer")
        perm = Permission("filea", Action.READ)
        engine.grant_permission(eng, perm)
        engine.grant_permission(eng, perm)
        assert engine.roles[eng].permissions == {perm}

    def test_grant_unknown_role(self, engine):
        with pytest.raises(UnknownRole):
            engine.grant_permission("ghost", Permission("filea", Action.READ))

    def test_wildcard_prefix_match(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        engine.grant_permission(eng, Permission("logs-*", Action.READ))
        assert engine.check_access("u", "logs-2024", Action.READ, T0).allowed
        assert not engine.check_access("u", "metrics-2024", Action.READ, T0).allowed

    def test_wildcard_only_final_position(self):
        with pytest.raises(ValidationError):
            Permission("a*b", Action.READ)

    def test_permission_matching_semantics(self):
        prefix = Permission("logs-*", Action.READ)
        assert prefix.matches("logs-x", Action.READ)
        assert prefix.matches("logs-", Action.READ)
        assert not prefix.matches("logs-x", Action.WRITE)
        assert not prefix.matches("metrics", Action.READ)
        assert Permission("*", Action.READ).matches("anything", Action.READ)
        exact = Permission("exact", Action.WRITE)
        assert exact.matches("exact", Action.WRITE)
        assert not exact.matches("exact2", Action.WRITE)

    def test_revoke_permission(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        perm = Permission("filea", Action.READ)
        engine.grant_permission(eng, perm)
        engine.revoke_permission(eng, perm)
        assert not engine.check_access("u", "filea", Action.READ, T0).allowed


class TestSeparationOfDuties:
    def setup_pair(self, engine):
        auditor = engine.add_role("Auditor")
        accountant = engine.add_role("Accountant")
        return auditor, accountant

    def test_add_constraint_without_dual_holders(self, engine):
        a, b = self.setup_pair(engine)
        engine.add_sod_constraint(a, b)
        assert frozenset((a, b)) in engine.sod

    def test_add_constraint_with_dual_holder_conflicts(self):
        for held in ("assigned", "inherited", "written-after-a-read"):
            engine = PolicyEngine()
            a, b = self.setup_pair(engine)
            engine.add_user("u", UserKind.END_USER)
            if held == "assigned":
                engine.assign_role("u", a)
                engine.assign_role("u", b)
            elif held == "inherited":
                engine.assign_role("u", engine.add_role("Boss", [a, b]))
            else:
                # after a read, the record is replaced behind the engine's
                # back, and the scan must still see it
                engine.assign_role("u", a)
                engine.effective_roles("u", T0)
                user = engine.users["u"]
                engine.users["u"] = dataclasses.replace(user, roles=user.roles | {b})
            with pytest.raises(ConflictExists):
                engine.add_sod_constraint(a, b)
            assert engine.sod == set(), held

    def test_assignment_violating_constraint(self, engine):
        a, b = self.setup_pair(engine)
        engine.add_sod_constraint(a, b)
        engine.add_user("u2", UserKind.END_USER)
        engine.assign_role("u2", a)
        with pytest.raises(SodViolation):
            engine.assign_role("u2", b)
        assert engine.users["u2"].roles == {a}

    def test_constraint_applies_through_hierarchy(self, engine):
        a, b = self.setup_pair(engine)
        engine.add_sod_constraint(a, b)
        boss = engine.add_role("Boss", [a])
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", boss)
        # boss dominates auditor, so adding accountant combines the pair
        with pytest.raises(SodViolation):
            engine.assign_role("u", b)

    def test_link_creating_conflict_rejected(self, engine):
        a, b = self.setup_pair(engine)
        engine.add_sod_constraint(a, b)
        boss = engine.add_role("Boss")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", boss)
        engine.link_roles(boss, a)
        with pytest.raises(SodViolation):
            engine.link_roles(boss, b)
        assert b not in engine.roles[boss].juniors

    def test_same_role_pair_invalid(self, engine):
        a, _ = self.setup_pair(engine)
        with pytest.raises(ValidationError):
            engine.add_sod_constraint(a, a)


class TestAssignments:
    def test_assign_gives_closure(self, engine):
        ceo, mgr, eng = chain(engine)
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", mgr)
        assert engine.effective_roles("u", T0) >= {mgr, eng}

    def test_reassign_idempotent(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        engine.assign_role("u", eng)
        assert engine.users["u"].roles == {eng}

    def test_assign_unknown_user(self, engine):
        eng = engine.add_role("Engineer")
        with pytest.raises(UnknownUser):
            engine.assign_role("ghost", eng)

    def test_revoke_role_immediate(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        engine.grant_permission(eng, Permission("filea", Action.READ))
        engine.revoke_role("u", eng)
        decision = engine.check_access("u", "filea", Action.READ, T0)
        assert not decision.allowed
        assert decision.reason is DecisionReason.NO_ROLE

    def test_revoke_unheld_role(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        with pytest.raises(NotAssigned):
            engine.revoke_role("u", eng)

    def test_revoke_one_of_two_roles_keeps_other(self, engine):
        ceo, mgr, eng = chain(engine)
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", mgr)
        engine.assign_role("u", eng)
        engine.grant_permission(eng, Permission("filea", Action.READ))
        engine.revoke_role("u", mgr)
        assert engine.check_access("u", "filea", Action.READ, T0).allowed


class TestDelegation:
    def setup_delegation(self, engine, ttl=3600.0):
        role = engine.add_role("DataRole")
        engine.grant_permission(role, Permission("filea", Action.READ))
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("temp", UserKind.END_USER)
        engine.assign_role("giver", role)
        return role, engine.delegate_role("giver", "temp", role, ttl, T0)

    def test_access_inside_window(self, engine):
        self.setup_delegation(engine)
        assert engine.check_access("temp", "filea", Action.READ, T0 + 1).allowed

    def test_expiry_boundary_exclusive(self, engine):
        self.setup_delegation(engine)
        assert engine.check_access("temp", "filea", Action.READ, T0 + 3599).allowed
        assert not engine.check_access("temp", "filea", Action.READ, T0 + 3600).allowed
        assert not engine.check_access("temp", "filea", Action.READ, T0 + 3601).allowed

    def test_delegate_unheld_role(self, engine):
        role = engine.add_role("DataRole")
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("temp", UserKind.END_USER)
        with pytest.raises(NotHeld):
            engine.delegate_role("giver", "temp", role, 3600, T0)

    def test_no_delegation_chains(self, engine):
        role, _ = self.setup_delegation(engine)
        engine.add_user("third", UserKind.END_USER)
        # temp only holds the role through delegation, so cannot re-delegate
        with pytest.raises(NotHeld):
            engine.delegate_role("temp", "third", role, 3600, T0 + 1)

    def test_revoke_delegation_immediate(self, engine):
        _, delegation_id = self.setup_delegation(engine)
        engine.revoke_delegation(delegation_id)
        assert not engine.check_access("temp", "filea", Action.READ, T0 + 1).allowed

    def test_revoke_twice_idempotent(self, engine):
        _, delegation_id = self.setup_delegation(engine)
        engine.revoke_delegation(delegation_id)
        engine.revoke_delegation(delegation_id)
        assert engine.delegations[delegation_id].revoked

    def test_revoke_after_expiry_no_change(self, engine):
        _, delegation_id = self.setup_delegation(engine)
        engine.revoke_delegation(delegation_id)
        assert not engine.check_access("temp", "filea", Action.READ, T0 + 9999).allowed

    def test_revoke_unknown_delegation(self, engine):
        with pytest.raises(UnknownDelegation):
            engine.revoke_delegation("dlg-nope")

    def test_delegation_sod_checked_at_creation(self, engine):
        a = engine.add_role("Auditor")
        b = engine.add_role("Accountant")
        engine.add_sod_constraint(a, b)
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("temp", UserKind.END_USER)
        engine.assign_role("giver", a)
        engine.assign_role("temp", b)
        with pytest.raises(SodViolation):
            engine.delegate_role("giver", "temp", a, 3600, T0)

    def test_delegation_sod_filtered_at_evaluation(self, engine):
        a = engine.add_role("Auditor")
        b = engine.add_role("Accountant")
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("temp", UserKind.END_USER)
        engine.assign_role("giver", a)
        engine.delegate_role("giver", "temp", a, 3600, T0)
        # constraint arrives after the delegation; assignment then conflicts
        engine.add_sod_constraint(a, b)
        engine.assign_role("temp", b)
        held = engine.effective_roles("temp", T0 + 1)
        assert not {a, b} <= held


class TestEffectiveRoles:
    def test_empty_without_roles(self, engine):
        engine.add_user("u", UserKind.END_USER)
        assert engine.effective_roles("u", T0) == frozenset()

    def test_expired_delegation_only(self, engine):
        role = engine.add_role("R")
        engine.add_user("giver", UserKind.DATA_OWNER)
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("giver", role)
        engine.delegate_role("giver", "u", role, 10, T0)
        assert engine.effective_roles("u", T0 + 11) == frozenset()

    def test_unknown_user(self, engine):
        with pytest.raises(UnknownUser):
            engine.effective_roles("ghost", T0)


class TestCheckAccess:
    def test_end_user_write_denied(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        engine.grant_permission(eng, Permission("filea", Action.WRITE))
        decision = engine.check_access("u", "filea", Action.WRITE, T0)
        assert not decision.allowed
        assert decision.reason is DecisionReason.READ_ONLY_ACTOR

    def test_inherited_permission_allows(self, engine):
        ceo, mgr, eng = chain(engine)
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", mgr)
        engine.grant_permission(eng, Permission("filea", Action.READ))
        assert engine.check_access("u", "filea", Action.READ, T0).allowed

    def test_no_roles_denied_with_no_role_reason(self, engine):
        engine.add_user("u", UserKind.END_USER)
        decision = engine.check_access("u", "filea", Action.READ, T0)
        assert not decision.allowed
        assert decision.reason is DecisionReason.NO_ROLE

    def test_no_permission_reason(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", eng)
        decision = engine.check_access("u", "filea", Action.READ, T0)
        assert decision.reason is DecisionReason.NO_PERMISSION

    def test_data_owner_may_write(self, engine):
        eng = engine.add_role("Engineer")
        engine.add_user("o", UserKind.DATA_OWNER)
        engine.assign_role("o", eng)
        engine.grant_permission(eng, Permission("filea", Action.WRITE))
        assert engine.check_access("o", "filea", Action.WRITE, T0).allowed


class TestDecisionCost:
    """Counting guards (ROADMAP item 18): a decision asks each effective
    role about its own permissions, so its work does not grow with the
    number of resources granted, and a revoke replaces one record and
    leaves nothing else to rebuild."""

    @staticmethod
    def world(n: int, pattern: bool) -> PolicyEngine:
        engine = PolicyEngine()
        roles = [engine.add_role(f"r{i}") for i in range(4)]
        engine.add_user("u", UserKind.END_USER)
        engine.assign_role("u", roles[0])
        engine.assign_role("u", roles[1])
        for i in range(n):
            for rid in roles:
                engine.grant_permission(rid, Permission(f"res{i}", Action.READ))
        if pattern:
            engine.grant_permission(roles[0], Permission("logs-*", Action.READ))
        return engine

    @staticmethod
    def probes(engine: PolicyEngine) -> None:
        for resource in ("res0", "res1", "logs-a", "absent", ""):
            for action in Action:
                engine.check_access("u", resource, action, T0)

    @pytest.mark.parametrize("pattern", [False, True], ids=["exact", "with-pattern"])
    def test_matches_calls_per_check_do_not_grow(self, monkeypatch, pattern):
        calls = []
        real = Permission.matches

        def counting(perm, resource, action):
            calls.append(perm)
            return real(perm, resource, action)

        monkeypatch.setattr(Permission, "matches", counting)
        counts = []
        for n in (50, 200):
            engine = self.world(n, pattern)
            calls.clear()
            self.probes(engine)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        if not pattern:
            assert counts == [0, 0]

    def test_revoke_leaves_one_record_to_rebuild(self, monkeypatch):
        builds = []
        real = Role._patterns.func

        def counting(role):
            builds.append(role.id)
            return real(role)

        patterns = functools.cached_property(counting)
        patterns.__set_name__(Role, "_patterns")
        monkeypatch.setattr(Role, "_patterns", patterns)
        counts = []
        for n in (50, 200):
            engine = self.world(n, pattern=True)
            self.probes(engine)  # every role's tuple is built once here
            role = next(iter(engine.users["u"].roles))
            builds.clear()
            engine.revoke_permission(role, Permission("res0", Action.READ))
            self.probes(engine)
            counts.append(len(builds))
        assert counts == [1, 1]
