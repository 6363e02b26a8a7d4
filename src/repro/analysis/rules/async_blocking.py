"""``async-blocking`` — no blocking calls reachable from the event loop.

The serving front-end is single-event-loop: one coroutine executing a
blocking call (`os.fsync` of the WAL, a checkpoint write, a pipe ``recv``)
stalls *every* connection, the metrics endpoint, and the signal handlers.
The fix is always the same — offload through ``loop.run_in_executor(...)``
or ``asyncio.to_thread(...)`` — and both offload forms pass the callable as
an *argument* rather than calling it, which is exactly what severs the
call-graph edge this rule walks.

Scope
-----

The rule builds an intra-module call graph (bare-name calls resolve to
module-level functions, ``self.method()`` calls resolve to same-module
methods by name) and marks every function reachable from an ``async def``
as running in event-loop context.  Inside that context it flags:

* dotted calls in :data:`BLOCKING_CALLS` — ``os.fsync``, ``time.sleep``,
  the ``subprocess`` family, blocking socket constructors;
* ``open(...)`` and ``Path.read_text``-style sync file I/O;
* method calls in :data:`BLOCKING_METHODS` — the project's own blocking
  surface: hub ops that hit the WAL or checkpoint files (``ingest``,
  ``observe``, ``checkpoint``, ``reshard``, ...), the ``AlertWal`` append
  family, and pipe ``send``/``recv``.

A call that *must* stay inline (a shutdown path running after the loop's
server has stopped, say) takes a reasoned
``# repro: allow(async-blocking) -- <why>`` suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.engine import Finding, ModuleInfo, Project, Rule

_FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Dotted call names that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        "os.fsync",
        "os.fdatasync",
        "os.sync",
        "time.sleep",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "select.select",
        "urllib.request.urlopen",
    }
)

#: Bare calls that open blocking file handles.
BLOCKING_BARE_CALLS = frozenset({"open"})

#: Method names whose receiver is (in this codebase) a blocking facade:
#: hub operations that end in WAL fsyncs or checkpoint writes, the
#: ``AlertWal`` append family, pipe connections, and sync file methods.
BLOCKING_METHODS = frozenset(
    {
        # MonitorHub / ShardedHub operations with durability side effects.
        "ingest",
        "observe",
        "observe_with_stats",
        "checkpoint",
        "reshard",
        "alerts_history",
        # AlertWal / durability helpers (repro.serving.wal).
        "commit",
        "append_alert",
        "append_watermark",
        "append_delivered",
        "flush_handle",
        "fsync_directory",
        # multiprocessing.connection.Connection.
        "send",
        "recv",
        "send_bytes",
        "recv_bytes",
        # Sync file/path I/O.
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "fsync",
    }
)

_REMEDY = (
    "; offload with `await loop.run_in_executor(...)` or "
    "`asyncio.to_thread(...)`, or add a reasoned "
    "`# repro: allow(async-blocking)` if the coroutine provably runs "
    "off the serving loop"
)


class AsyncBlockingRule(Rule):
    id = "async-blocking"
    description = (
        "no blocking I/O (fsync, sleep, subprocess, pipe send/recv, WAL "
        "appends, hub ops) reachable from an async def without executor "
        "offload"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for info in project.modules:
            if info.tree is None:
                continue
            yield from self._check_module(info)

    # ----------------------------------------------------------- internals

    def _check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        functions = _module_functions(info.tree)
        if not any(isinstance(node, ast.AsyncFunctionDef) for node, _ in functions.values()):
            return

        # Event-loop context = async defs plus every sync function reachable
        # from one through direct same-module calls.  Offloaded callables
        # never appear as ast.Call nodes, so offloading cuts the edge.
        origins: Dict[str, Tuple[str, ...]] = {}
        worklist: List[str] = []
        for name, (node, _) in functions.items():
            if isinstance(node, ast.AsyncFunctionDef):
                origins[name] = (name,)
                worklist.append(name)
        while worklist:
            name = worklist.pop()
            node, _ = functions[name]
            for callee in _called_names(node, functions):
                if callee not in origins:
                    origins[callee] = origins[name] + (callee,)
                    worklist.append(callee)

        for name in sorted(origins):
            node, qualname = functions[name]
            chain = origins[name]
            for call in _own_calls(node):
                message = self._diagnose(call, chain, qualname)
                if message is not None:
                    yield Finding(
                        rule=self.id,
                        path=info.rel_path,
                        line=call.lineno,
                        col=call.col_offset,
                        message=message,
                    )

    def _diagnose(
        self, call: ast.Call, chain: Tuple[str, ...], qualname: str
    ) -> Optional[str]:
        dotted = self.dotted_name(call.func)
        label = None
        if dotted is not None and (
            dotted in BLOCKING_CALLS or dotted in BLOCKING_BARE_CALLS
        ):
            label = dotted
        elif (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in BLOCKING_METHODS
        ):
            label = f"<obj>.{call.func.attr}"
        if label is None:
            return None
        via = "" if len(chain) == 1 else f" via {' -> '.join(chain)}"
        return (
            f"blocking call {label}() runs on the event loop: {qualname} is "
            f"reachable from async def {chain[0]}{via}" + _REMEDY
        )


def _module_functions(
    tree: ast.Module,
) -> Dict[str, Tuple[_FuncNode, str]]:
    """``name -> (node, qualname)`` for module functions and class methods.

    Methods are keyed by bare name so that ``self.method()`` resolves; when
    a module-level function and a method share a name, the module-level one
    wins (bare-name calls can only mean it).
    """
    functions: Dict[str, Tuple[_FuncNode, str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.setdefault(
                        item.name, (item, f"{node.name}.{item.name}")
                    )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = (node, node.name)
    return functions


def _own_calls(func: _FuncNode) -> Iterator[ast.Call]:
    """Call nodes in ``func``'s own body, excluding nested def/class bodies."""
    stack: List[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _called_names(
    func: _FuncNode, functions: Dict[str, Tuple[_FuncNode, str]]
) -> Set[str]:
    """Same-module sync functions ``func`` calls directly."""
    called: Set[str] = set()
    for call in _own_calls(func):
        name: Optional[str] = None
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("self", "cls")
        ):
            name = call.func.attr
        if name is None or name not in functions:
            continue
        node, _ = functions[name]
        if isinstance(node, ast.AsyncFunctionDef):
            continue  # awaited coroutines are not blocking edges
        called.add(name)
    return called
