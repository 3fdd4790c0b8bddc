"""Exception types shared across the package, the one input reader and the one JSON writer.

The split mirrors the CLI exit codes: contract violations and validation
errors exit 2, bound/plan failures exit 1, parse errors exit 3.
"""
import json


class ContractViolation(ValueError):
    """A caller broke a documented precondition (bad index, dimension mismatch)."""


class ValidationError(ValueError):
    """Input data failed structural validation (bad table length, duplicate concepts)."""


class ParseError(ValueError):
    """A file could not be parsed; message carries line/position where known."""


def read_input(path, as_json=False):
    """path's UTF-8 text, or the JSON value it holds; a bad byte or bad JSON is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh) if as_json else fh.read()
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start + 1} is not UTF-8 text") from exc


# scalars a container needs before the C encoder renders it: one C-encoder call costs
# about what the stdlib's pure-Python encoder spends on 20 scalars
LONG_LEAF = 32


def render_json(payload) -> str:
    """payload as every JSON record and output is written: sorted keys, indent 2, a newline.

    The text is json.dumps(payload, indent=2, sort_keys=True)'s.  That call runs the
    stdlib's pure-Python encoder, so every dict, list or tuple of LONG_LEAF or more
    scalars goes through the C encoder instead, with the newline and indent in its item
    separator; the rest goes through the stdlib, in one call per part that holds no
    such container.
    """
    text = _render(payload, "\n") if isinstance(payload, (dict, list, tuple)) else None
    return (json.dumps(payload, indent=2, sort_keys=True) if text is None else text) + "\n"


def _render(value, newline: str) -> str | None:
    """The text of the dict, list or tuple value at the depth whose lines start with
    newline; None when it holds no container of LONG_LEAF or more scalars, so that the
    caller's stdlib call covers it.
    """
    children = value.values() if isinstance(value, dict) else value
    inner = newline + "  "
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, children))):
        if len(children) < LONG_LEAF:
            return None
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + newline + text[-1]
    texts = [_render(v, inner) if isinstance(v, (dict, list, tuple)) else None for v in children]
    if all(t is None for t in texts):
        return None
    if isinstance(value, dict) and not all(isinstance(k, str) for k in value):
        return None  # the stdlib's call coerces other keys
    lines = [
        t if t is not None
        else json.dumps(v, indent=2, sort_keys=True).replace("\n", inner) if isinstance(v, (dict, list, tuple))
        else json.dumps(v)  # a scalar: the C encoder's text
        for v, t in zip(children, texts)
    ]
    if not isinstance(value, dict):
        return "[" + inner + ("," + inner).join(lines) + newline + "]"
    items = (f"{json.dumps(k)}: {line}" for k, line in sorted(zip(value, lines)))
    return "{" + inner + ("," + inner).join(items) + newline + "}"


class BoundViolation(RuntimeError):
    """A claimed error rate is inconsistent with the pairwise overlap constraints."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class InputOutsideClass(RuntimeError):
    """Queried bit pattern matches no concept in the plan's class."""
