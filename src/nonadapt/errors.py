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


def render_json(payload) -> str:
    """payload as every JSON record and output is written: sorted keys, indent 2, a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class BoundViolation(RuntimeError):
    """A claimed error rate is inconsistent with the pairwise overlap constraints."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class InputOutsideClass(RuntimeError):
    """Queried bit pattern matches no concept in the plan's class."""
