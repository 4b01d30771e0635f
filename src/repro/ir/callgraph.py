"""Call-graph construction and recursion detection.

The volume calculus (paper section 4.3) accumulates loop nests across the
call tree and is only sound for non-recursive programs; the taint engine
warns when recursion is present (section 4.1).  The call graph also feeds
the static pruning phase, which must propagate "affected by parameters"
facts from callees to callers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import IRError
from .program import Program


def _strongly_connected(succs: dict[str, tuple[str, ...]]) -> list[list[str]]:
    """Tarjan's strongly connected components, iteratively.

    Components come out callee-first (every component after all the
    components it reaches), and the order is deterministic: roots in
    *succs* order, successors in tuple order.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[list[str]] = []
    for root in succs:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succs[nxt])))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


@dataclass
class CallGraph:
    """Directed call graph over the functions of one program.

    Nodes are program-defined function names, in program order; each
    maps to its program-defined callees, sorted by name.  Calls to
    external (library) routines are recorded separately in
    ``external_calls`` since they are resolved through the library
    database, not the program.
    """

    succs: dict[str, tuple[str, ...]]
    external_calls: dict[str, frozenset[str]]

    def callees(self, name: str) -> frozenset[str]:
        """Program-defined functions called by *name*."""
        return frozenset(self.succs[name])

    def callers(self, name: str) -> frozenset[str]:
        """Program-defined functions that call *name*."""
        return frozenset(fn for fn, out in self.succs.items() if name in out)

    def externals_of(self, name: str) -> frozenset[str]:
        """Library routines called by *name* (e.g. ``MPI_Allreduce``)."""
        return self.external_calls.get(name, frozenset())

    def recursive_functions(self) -> frozenset[str]:
        """Functions participating in any call cycle (incl. self-recursion)."""
        out: set[str] = set()
        for component in _strongly_connected(self.succs):
            first = component[0]
            if len(component) > 1 or first in self.succs[first]:
                out.update(component)
        return frozenset(out)

    @property
    def has_recursion(self) -> bool:
        """True when any recursion cycle exists."""
        return bool(self.recursive_functions())

    def topological_order(self) -> list[str]:
        """Reverse-topological (callee-first) order; raises on recursion."""
        if self.has_recursion:
            raise IRError("call graph is cyclic (recursive program)")
        return [c[0] for c in _strongly_connected(self.succs)]

    def reachable_from(self, entry: str) -> frozenset[str]:
        """Functions reachable from *entry* (entry included)."""
        if entry not in self.succs:
            return frozenset()
        seen = {entry}
        todo = [entry]
        while todo:
            for callee in self.succs[todo.pop()]:
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return frozenset(seen)

    def transitive_externals(self, entry: str) -> frozenset[str]:
        """Library routines reachable (transitively) from *entry*."""
        out: set[str] = set()
        for fn in self.reachable_from(entry):
            out |= self.externals_of(fn)
        return frozenset(out)


def build_callgraph(program: Program) -> CallGraph:
    """Build the call graph of *program*."""
    succs: dict[str, tuple[str, ...]] = {}
    external: dict[str, frozenset[str]] = {}
    defined = program.defined_names()
    for fn in program:
        callees = fn.callees()
        external[fn.name] = frozenset(callees - defined)
        succs[fn.name] = tuple(sorted(callees & defined))
    return CallGraph(succs, external)
