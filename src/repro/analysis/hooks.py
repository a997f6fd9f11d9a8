"""CORE: cluster-backend hook contracts over the class graph.

Since the ``CoordinatorCore`` extraction, the round engine is a template
method: the core owns the protocol (``run``/``_run``/``_finalize``, drains,
transfers, recovery) and backends fill in a declared hook surface
(``_launch``, ``_seed``, ``_admit_member``, ``_teardown_run``).  The contract
is marked in source with the :func:`repro.cluster.core.backend_hook`
decorator; these checks enforce it structurally, across modules:

``CORE001``
    A concrete backend shell (a subclass that declares no abstract methods
    of its own) leaves an abstract ``@backend_hook`` unimplemented
    anywhere in its MRO.  At runtime this is a ``NotImplementedError``
    mid-campaign; statically it is a missing hook.
``CORE002``
    A subclass defines a method that shadows a core-owned method -- one
    the nearest defining ancestor neither marked ``@backend_hook`` nor
    left abstract.  The round engine's invariants live in those methods;
    a shell overriding ``_advance_drains`` silently forks the engine.
``CORE003``
    A class that explicitly inherits an in-tree ``Protocol`` (the
    ``Member`` surface) does not define or inherit every method and
    annotated attribute the protocol declares.

All three are inert on trees that never use ``@backend_hook`` or an
explicit ``Protocol`` base, so ordinary fixtures stay quiet.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.core import Finding, SourceModule, attr_chain
from repro.analysis.program import ClassInfo, ProjectIndex, _is_abstract

__all__ = ["check"]

_HOOK_DECORATOR = "backend_hook"
_ABSTRACT_DECORATORS = frozenset({"abstractmethod", "abstractproperty"})


def _decorator_names(node: ast.AST) -> List[str]:
    names = []
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        chain = attr_chain(target)
        if chain:
            names.append(chain.split(".")[-1])
    return names


def _is_hook(node: ast.AST) -> bool:
    return _HOOK_DECORATOR in _decorator_names(node)


def _is_abstract_method(node: ast.AST) -> bool:
    if _is_abstract(node):
        return True
    return bool(_ABSTRACT_DECORATORS & set(_decorator_names(node)))


def check(modules: List[SourceModule],
          index: Optional[ProjectIndex] = None) -> List[Finding]:
    if index is None:
        index = ProjectIndex(modules)
    findings: List[Finding] = []

    core_classes = {dotted for dotted, info in index.classes.items()
                    if any(_is_hook(m) for m in info.methods.values())}

    def finding(checker: str, info: ClassInfo, message: str,
                hint: str) -> Finding:
        return Finding(checker, info.module.path, info.node.lineno,
                       message, hint=hint, context=info.name)

    for dotted in sorted(index.classes):
        info = index.classes[dotted]
        mro = index.mro(dotted)
        ancestors = mro[1:]
        if not any(a.dotted in core_classes for a in ancestors):
            continue

        # CORE002: shadowing a core-owned method.  The nearest ancestor
        # definition decides: a hook or abstract method is overridable,
        # anything else a core class owns is not.
        for name, node in sorted(info.methods.items()):
            if name.startswith("__"):
                continue
            for ancestor in ancestors:
                if name not in ancestor.methods:
                    continue
                owned = ancestor.methods[name]
                if ancestor.dotted in core_classes \
                        and not _is_hook(owned) \
                        and not _is_abstract_method(owned):
                    findings.append(Finding(
                        "CORE002", info.module.path, node.lineno,
                        "%s.%s shadows core-owned method %s.%s (not a "
                        "@backend_hook)"
                        % (info.name, name, ancestor.name, name),
                        hint="call the core's method, or mark it "
                             "@backend_hook in %s if backends may "
                             "override it" % ancestor.module.path,
                        context="%s.%s" % (info.name, name)))
                break  # nearest definition decides

        # CORE001: a concrete shell must implement every abstract hook.
        is_concrete = not any(_is_abstract_method(m)
                              for m in info.methods.values())
        if is_concrete:
            required: Dict[str, ClassInfo] = {}
            provided: Set[str] = set()
            for klass in mro:
                for name, node in klass.methods.items():
                    if _is_hook(node) and _is_abstract_method(node):
                        required.setdefault(name, klass)
                    if not _is_abstract_method(node):
                        provided.add(name)
            for name in sorted(set(required) - provided):
                owner = required[name]
                findings.append(finding(
                    "CORE001", info,
                    "%s does not implement abstract backend hook %s.%s"
                    % (info.name, owner.name, name),
                    hint="implement %s or give the hook a default body "
                         "in %s" % (name, owner.module.path)))

    # CORE003: explicit Protocol inheritance is a structural claim.
    for dotted in sorted(index.classes):
        info = index.classes[dotted]
        for base in info.bases:
            proto = index.classes.get(base)
            if proto is None or not proto.is_protocol():
                continue
            declared: Set[str] = set(proto.methods)
            for statement in proto.node.body:
                if isinstance(statement, ast.AnnAssign) \
                        and isinstance(statement.target, ast.Name):
                    declared.add(statement.target.id)
            available: Set[str] = set()
            for klass in index.mro(dotted):
                if klass.dotted == proto.dotted:
                    continue
                available.update(klass.methods)
                available.update(klass.attr_types)
                for statement in klass.node.body:
                    if isinstance(statement, ast.AnnAssign) \
                            and isinstance(statement.target, ast.Name):
                        available.add(statement.target.id)
                    elif isinstance(statement, ast.Assign):
                        for target in statement.targets:
                            if isinstance(target, ast.Name):
                                available.add(target.id)
                for method in klass.methods.values():
                    for node in ast.walk(method):
                        if isinstance(node, (ast.Assign, ast.AnnAssign)):
                            targets = node.targets \
                                if isinstance(node, ast.Assign) \
                                else [node.target]
                            for target in targets:
                                if isinstance(target, ast.Attribute) \
                                        and isinstance(target.value,
                                                       ast.Name) \
                                        and target.value.id == "self":
                                    available.add(target.attr)
            for name in sorted(declared - available):
                if name.startswith("_"):
                    continue
                findings.append(finding(
                    "CORE003", info,
                    "%s claims protocol %s but does not provide %r"
                    % (info.name, proto.name, name),
                    hint="define %s (method or attribute) or drop the "
                         "protocol base" % name))
    return findings
