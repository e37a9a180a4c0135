"""One public surface: every name in an __all__ of weil_lab exists, and the
package's own code reaches it, or it is kept for a stated reason."""

import ast
import os

import weil_lab

SRC = os.path.dirname(weil_lab.__file__)

# Exported names that no code in the package reaches, each with its reason.
KEPT = {
    "E_xi": "perfbench/tracing.py wraps it by name, so the benchmark's "
            "install would raise without it",
    "xi_on_critical_line": "perfbench/tracing.py wraps it by name, as E_xi",
    "psi_gamma_tail_bound": "the declared truncation bound of psi_gamma: "
                            "acceptance criterion 5's tolerance, and the "
                            "budget of the rows that read psi_gamma",
    "screw_tail_bound": "the declared truncation bound of screw_g, the "
                        "budget of a row on the screw function",
    "v_membership": "the chain claim psi in V(t), which no other code checks",
    "MembershipReport": "v_membership's report",
}


def _exports_and_references(src_dir):
    """({(module, name): top-level definition node} of the __all__ names,
    [(module, enclosing top-level name or None, identifier)] of every name
    and attribute read in code; strings and docstrings are not code."""
    exports, refs = {}, []
    for fname in sorted(os.listdir(src_dir)):
        if not fname.endswith(".py"):
            continue
        mod = fname[:-3]
        with open(os.path.join(src_dir, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs, names = {}, []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        defs[t.id] = stmt
                        if t.id == "__all__":
                            names = [e.value for e in stmt.value.elts]
            owner = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.append((mod, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    refs.append((mod, owner, node.attr))
        for name in names:
            exports[(mod, name)] = defs.get(name)
    return exports, refs


def unreached(src_dir=SRC):
    """Exported names that no code reaches, read outside their own
    definition; a read inside an unreached name's definition does not count
    either (v_membership does not make MembershipReport reached)."""
    exports, refs = _exports_and_references(src_dir)
    dead = set()
    while True:
        reached = {ident for mod, owner, ident in refs
                   if owner != ident and (mod, owner) not in dead}
        now = {key for key in exports if key[1] not in reached}
        if now == dead:
            return {name for _, name in dead}
        dead = now


def test_every_exported_name_exists():
    exports, _ = _exports_and_references(SRC)
    missing = sorted("%s.%s" % key for key, node in exports.items() if node is None)
    assert missing == []


def test_every_exported_name_is_reached_or_kept_for_a_reason():
    names = unreached()
    assert sorted(names - set(KEPT)) == []       # used by nothing: delete it
    assert sorted(set(KEPT) - names) == []       # reached now: drop it from KEPT
    assert all(reason for reason in KEPT.values())
