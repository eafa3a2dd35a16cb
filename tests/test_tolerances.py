"""The tolerance table in ``linalg`` is the one place a threshold is
written, ``linalg.require_dim`` the one place a dimension mismatch is
raised, ``linalg.normalize`` the one place a zero normalization is,
``linalg.require_instance`` the one place an argument is refused by type,
``linalg._as_numbers`` the one place an argument is read as complex
numbers, ``linalg`` the one module whose per-item rules word what a
stacked check does not clear, ``linalg.freeze`` the one place an array is
made read-only, ``linalg.Frozen`` the one unpickle hook,
``linalg.require_sequence`` the one reading of an ordered argument, and
no cached view a closure."""

import ast
import io
import pathlib
import tokenize

import qcontour

SOURCES = sorted(pathlib.Path(qcontour.__file__).parent.glob("*.py"))


def _is_table_assignment(path, line_tokens) -> bool:
    """``NAME = NUMBER`` at module level in ``linalg``."""
    kinds = [(t.type, t.string) for t in line_tokens]
    return (path.name == "linalg.py" and len(kinds) == 3
            and kinds[0][0] == tokenize.NAME and kinds[1] == (tokenize.OP, "=")
            and kinds[2][0] == tokenize.NUMBER and line_tokens[0].start[1] == 0)


def _small_float_literals(path):
    """Positive float literals <= 1e-6 outside the table, with line numbers.

    Comments and docstrings are COMMENT and STRING tokens, so they never
    count."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    lines: dict[int, list] = {}
    for tok in tokens:
        if tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT,
                            tokenize.INDENT, tokenize.DEDENT):
            lines.setdefault(tok.start[0], []).append(tok)
    found = []
    for line_tokens in lines.values():
        if _is_table_assignment(path, line_tokens):
            continue
        for tok in line_tokens:
            if tok.type != tokenize.NUMBER or tok.string[-1] in "jJ":
                continue
            value = float(tok.string.replace("_", ""))
            if 0.0 < value <= 1e-6:
                found.append((path.name, tok.start[0], tok.string))
    return found


def test_no_threshold_literal_outside_the_table():
    found = [hit for path in SOURCES for hit in _small_float_literals(path)]
    assert found == []


def test_orthonormality_tolerance_only_inside_linalg():
    """Outside ``linalg``, orthonormal sets are checked by ``as_basis``,
    never by ``is_orthonormal`` with a tolerance."""
    offenders = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", None))
                    == "is_orthonormal"
                    and (len(node.args) > 1 or node.keywords)):
                offenders.append((path.name, node.lineno))
    assert offenders == []


def _name(node):
    """The name a ``Name`` or ``Attribute`` node ends in, else None."""
    return getattr(node, "id", getattr(node, "attr", None))


def _calls_outside(rule: str, matches):
    """(file, line) of each call that ``matches`` anywhere but in the body
    of ``linalg.<rule>``."""
    return _nodes_outside(rule, lambda node: isinstance(node, ast.Call)
                          and matches(node))


def _nodes_outside(rule: str, matches):
    """(file, line) of each syntax node that ``matches`` anywhere but in
    the body of ``linalg.<rule>``."""
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        rules = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and path.name == "linalg.py" and node.name == rule]
        inside = {id(node) for r in rules for node in ast.walk(r)}
        for node in ast.walk(tree):
            if matches(node) and id(node) not in inside:
                offenders.append((path.name, node.lineno))
    return offenders


def _constructed_outside(error: str, rule: str):
    """(file, line) of each call constructing ``error`` anywhere but in
    the body of ``linalg.<rule>``."""
    return _calls_outside(rule, lambda call: _name(call.func) == error)


def test_dimension_mismatch_raised_only_by_the_rule():
    """Every dimension check asks ``linalg.require_dim``: no other code
    constructs a ``DimensionMismatchError``."""
    assert _constructed_outside("DimensionMismatchError",
                                "require_dim") == []


def test_zero_normalization_raised_only_by_the_rule():
    """Every renormalization asks ``linalg.normalize``: no other code
    constructs a ``ZeroNormalizationError``."""
    assert _constructed_outside("ZeroNormalizationError", "normalize") == []


def _refuses_by_type(node, classes) -> bool:
    """True iff ``node`` is an ``if`` whose test holds
    ``not isinstance(x, C)``, C one of ``classes`` (or a tuple holding
    one), and whose body raises."""
    if not (isinstance(node, ast.If) and any(
            isinstance(n, ast.Raise)
            for stmt in node.body for n in ast.walk(stmt))):
        return False
    for n in ast.walk(node.test):
        if (isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not)
                and isinstance(n.operand, ast.Call)
                and getattr(n.operand.func, "id", None) == "isinstance"
                and len(n.operand.args) == 2):
            kind = n.operand.args[1]
            kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(getattr(k, "id", getattr(k, "attr", None)) in classes
                   for k in kinds):
                return True
    return False


def _type_refusals_outside(rule: str):
    """(file, innermost enclosing function) of each refusal by a package
    class's type anywhere but in the body of ``linalg.<rule>``."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    classes = {node.name for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    offenders = []
    for path, tree in trees.items():
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not _refuses_by_type(node, classes):
                continue
            owner = node
            while owner in parents and not isinstance(owner, ast.FunctionDef):
                owner = parents[owner]
            name = getattr(owner, "name", None)
            if not (path.name == "linalg.py" and name == rule):
                offenders.append((path.name, name))
    return offenders


def test_type_checked_only_by_the_rule():
    """Every argument of a package type is checked by
    ``linalg.require_instance``.  The one exception is the mode check of
    ``decompose_total_measure``, whose refusal keeps its own message,
    "unknown decomposition mode ..."."""
    assert _type_refusals_outside("require_instance") == [
        ("measure.py", "decompose_total_measure")]


def _is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _reads_as_complex(call) -> bool:
    """True iff ``call`` converts to a complex dtype: an ``.astype`` call,
    or a numpy array constructor on a non-literal argument."""
    name = _name(call.func)
    if name == "astype":
        dtypes = call.args[:1]
    elif (name in ("array", "asarray", "asanyarray", "ascontiguousarray")
          and call.args and not _is_literal(call.args[0])):
        dtypes = call.args[1:2]
    else:
        return False
    dtypes += [kw.value for kw in call.keywords if kw.arg == "dtype"]
    return any(str(_name(d) or getattr(d, "value", "")).startswith("complex")
               for d in dtypes)


def test_arrays_read_only_by_the_rule():
    """Every array argument is read by ``linalg._as_numbers``: no other
    code converts a value it was given to a complex array."""
    assert _calls_outside("_as_numbers", _reads_as_complex) == []


def test_per_item_rules_are_called_only_inside_linalg():
    """A caller hands its generators or bases to the stacked checks
    (``_hermitian_stack``, ``_basis_stacks``), which leave to the
    per-item rules what they do not clear: no module but ``linalg`` calls
    ``as_basis`` or ``require_hermitian``, so none grows its own
    fallback."""
    offenders = [
        (path.name, node.lineno) for path in SOURCES
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and _name(node.func) in ("as_basis", "require_hermitian")]
    assert offenders == []


def test_state_margin_read_only_by_the_basis_verdict():
    """``STATE_MARGIN``, the stacked state check's fast-path margin, is
    read only by ``linalg._basis_stacks``, the one basis verdict."""
    assert _nodes_outside("_basis_stacks", lambda node: (
        _name(node) == "STATE_MARGIN"
        and isinstance(getattr(node, "ctx", None), ast.Load))) == []


def test_arrays_made_read_only_only_by_the_rule():
    """Every checked array is made read-only by ``linalg.freeze``: no
    other code calls ``setflags``."""
    assert _calls_outside("freeze",
                          lambda call: _name(call.func) == "setflags") == []


#: the names through which pickle restores or rebuilds an object
_PICKLE_HOOKS = ("__setstate__", "__getstate__", "__reduce__",
                 "__reduce_ex__")


def _class_members(stmt) -> list:
    """The names a class-body statement defines: a method's, or an
    assignment's targets."""
    if isinstance(stmt, ast.FunctionDef):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [_name(target) for target in stmt.targets]
    return []


def test_one_unpickle_hook():
    """An object holding checked arrays is restored by the one hook,
    ``linalg.Frozen.__setstate__``, which freezes them again; a schedule
    alone is rebuilt, by its ``__reduce__``, from its segments."""
    hooks = [(path.name, cls.name, name) for path in SOURCES
             for cls in ast.walk(ast.parse(path.read_text()))
             if isinstance(cls, ast.ClassDef)
             for stmt in cls.body for name in _class_members(stmt)
             if name in _PICKLE_HOOKS]
    assert sorted(hooks) == [
        ("dynamics.py", "HamiltonianSchedule", "__reduce__"),
        ("linalg.py", "Frozen", "__setstate__")]


def _closures_in_cached_properties(tree):
    """Line of each ``lambda`` or nested ``def`` in the body of a
    ``cached_property``."""
    return [node.lineno for prop in ast.walk(tree)
            if isinstance(prop, ast.FunctionDef)
            and any(_name(d) == "cached_property" for d in prop.decorator_list)
            for stmt in prop.body for node in ast.walk(stmt)
            if isinstance(node, (ast.Lambda, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]


def test_cached_views_close_over_nothing():
    """A cached view binds module-level row builders with
    ``functools.partial``: a closure in a ``cached_property`` body would
    refer to its owner, which the cyclic collector then frees late, and
    would not pickle."""
    closure = ast.parse(
        "class Report:\n"
        "    @cached_property\n"
        "    def entries(self):\n"
        "        return _Rows(len(self.weights), lambda lo, hi: map(\n"
        "            self.entry, range(lo, hi)))\n")
    assert _closures_in_cached_properties(closure) == [4]
    assert [(path.name, line) for path in SOURCES
            for line in _closures_in_cached_properties(
                ast.parse(path.read_text()))] == []


def _probes_for_a_sequence(node) -> bool:
    """True iff ``node`` is a ``hasattr(x, "__len__")`` call, or a ``try``
    whose body calls ``iter``: the two hand-written sequence checks."""
    if isinstance(node, ast.Call) and _name(node.func) == "hasattr":
        return getattr(node.args[-1], "value", None) == "__len__"
    return isinstance(node, ast.Try) and any(
        isinstance(n, ast.Call) and _name(n.func) == "iter"
        for stmt in node.body for n in ast.walk(stmt))


def test_sequences_read_only_by_the_rule():
    """Every ordered argument is read by ``linalg.require_sequence``: no
    other code asks for a length or probes with ``iter`` to decide what
    counts as a sequence."""
    probe = ast.parse("try:\n    iter(x)\nexcept TypeError:\n    pass\n"
                      "ok = hasattr(y, '__len__')\n")
    assert [type(node).__name__ for node in ast.walk(probe)
            if _probes_for_a_sequence(node)] == ["Try", "Call"]
    assert _nodes_outside("require_sequence", _probes_for_a_sequence) == []
