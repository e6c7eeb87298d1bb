import pytest

from alurity.model import ContainerSpec, ModuleRef
from alurity.toolreg import (
    ComposedImage,
    ModuleManifest,
    RegistryIndex,
    UnknownModule,
    registry_index_from_dict,
    resolve,
)

REG = "registry.gitlab.com/aliasrobotics/offensive/alurity"


def ref(text):
    return ModuleRef.parse(text)


# The paper's seven module groups, and the group of a module that matches none.
MODULE_GROUPS = {"robots", "robot-components", "forensics", "exploitation", "testing", "reconnaissance", "ide-ui", "unknown"}


class TestClassify:
    def test_seven_groups_plus_unknown(self):
        assert ref(f"{REG}/robo_ur_cb3_1:3.13.0").group == "robots"
        assert ref(f"{REG}/reco_aztarna:latest").group == "reconnaissance"
        assert ref("r/xyz_tool:1").group == "unknown"

    def test_image_is_bounded_by_group_set(self):
        for text in ("r/robo_a:1", "r/comp_b:1", "r/fore_c:1", "r/expl_d:1", "r/test_e:1", "r/reco_f:1", "r/deve_g:1", "r/zzz:1"):
            assert ref(text).group in MODULE_GROUPS


class TestResolve:
    def test_attacker_composition(self, listing1, registry):
        attacker = listing1.containers[1]
        image = resolve(attacker, registry)
        assert image == ComposedImage(base=attacker.base, entrypoint=registry.lookup(attacker.volumes[-1]).entrypoint)

    def test_base_only(self, registry):
        container = ContainerSpec(name="solo", base=ref(f"{REG}/robo_ur_cb3_1:3.13.0"))
        assert resolve(container, registry) == ComposedImage(base=container.base, entrypoint="/usr/bin/ur-controller")

    def test_missing_volume(self, registry):
        container = ContainerSpec(
            name="x",
            base=ref(f"{REG}/robo_ur_cb3_1:3.13.0"),
            volumes=(ref("nowhere/ghost_tool:0"),),
        )
        with pytest.raises(UnknownModule) as exc:
            resolve(container, registry)
        assert "ghost_tool" in str(exc.value)

    def test_order_sensitivity(self):
        index = registry_index_from_dict(
            {
                "r/base:1": {"tools": ["t0"], "entrypoint": "e0"},
                "r/a:1": {"tools": ["t1"], "entrypoint": "ea"},
                "r/b:1": {"tools": ["t2"], "entrypoint": "eb"},
                "r/c:1": {"tools": ["t3"]},
            }
        )
        fwd = ContainerSpec(name="x", base=ref("r/base:1"), volumes=(ref("r/a:1"), ref("r/b:1"), ref("r/c:1")))
        rev = ContainerSpec(name="x", base=ref("r/base:1"), volumes=(ref("r/c:1"), ref("r/b:1"), ref("r/a:1")))
        # the later overlay with an entrypoint sets it; one without leaves it
        assert resolve(fwd, index).entrypoint == "eb"
        assert resolve(rev, index).entrypoint == "ea"
        assert resolve(ContainerSpec(name="x", base=ref("r/base:1"), volumes=(ref("r/c:1"),)), index).entrypoint == "e0"


class TestIndex:
    def test_lookup_is_exact_on_canonical_text(self, registry):
        assert registry.lookup(ref(f"{REG}/reco_aztarna:latest")).entrypoint
        with pytest.raises(UnknownModule):
            registry.lookup(ref(f"{REG}/reco_aztarna:other"))

    def test_rules_loaded_from_manifest(self, registry):
        manifest = registry.lookup(ref(f"{REG}/reco_aztarna:latest"))
        assert ref(f"{REG}/reco_aztarna:latest").group == "reconnaissance"  # the group is the prefix map's
        assert len(manifest.rules) == 1
        assert manifest.rules[0].flaw_class == "exposure"

    def test_empty_index(self):
        index = RegistryIndex({})
        with pytest.raises(UnknownModule):
            index.lookup(ref("r/a:1"))
