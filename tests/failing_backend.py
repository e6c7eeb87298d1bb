"""The mock backend with injected failures, for the tests of all-or-nothing
bring-up, rollback and teardown leaks."""

from alurity.orchestrator import MockBackend


class FailingBackend(MockBackend):
    """``MockBackend`` whose ``create_endpoint`` fails for an endpoint kind in
    ``refuse_kinds`` or a name in ``fail_create``, whose ``destroy`` fails for
    a name in ``fail_destroy``, and whose ``apply_plan`` fails while
    ``fail_apply`` is set.  Each may be changed between calls."""

    def __init__(self, responses=None, fail_create=(), fail_destroy=(), refuse_kinds=(), fail_apply=False):
        super().__init__(responses)
        self.fail_create = set(fail_create)
        self.fail_destroy = set(fail_destroy)
        self.refuse_kinds = set(refuse_kinds)
        self.fail_apply = fail_apply

    def create_endpoint(self, spec, image, addresses):
        kind = "vm" if hasattr(spec, "path") else "container"
        if kind in self.refuse_kinds:
            raise RuntimeError(f"backend refuses to host {kind} endpoints")
        if spec.name in self.fail_create:
            raise RuntimeError(f"injected creation failure for {spec.name!r}")
        return super().create_endpoint(spec, image, addresses)

    def destroy(self, handle):
        if not handle.destroyed and handle.name in self.fail_destroy:
            raise RuntimeError(f"injected destroy failure for {handle.name!r}")
        super().destroy(handle)

    def apply_plan(self, plan):
        if self.fail_apply:
            raise RuntimeError("injected apply_plan failure")
        super().apply_plan(plan)
