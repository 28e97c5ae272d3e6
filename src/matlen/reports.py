"""Instance files, report records, and canonical serialization.

The canonical report body is JSON with sorted keys and no timestamps, so a
rerun with the same configuration is byte-identical. Instance files follow
the fixed schema {"schema": 1, "p": ..., "n": ..., "matrices": [...]} with
entries already reduced into [0, p): out-of-range entries are rejected, not
silently reduced.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable, Iterable, Iterator
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import Any

from .certificates import (
    BoundLedger,
    GeneratorAnalysis,
    RankCertificate,
    analyze_generators,
    bound_ledger,
)
from .errors import ParseError
from .length import GeneratingSet, LengthReport
from .linalg import Matrix, PrimeField

INSTANCE_SCHEMA = 1
REPORT_SCHEMA_VERSION = 1


def parse_instance(obj: Any) -> GeneratingSet:
    """Validate a decoded instance object and build the generating set."""
    if not isinstance(obj, dict):
        raise ParseError(f"instance must be a JSON object, got {type(obj).__name__}")
    schema = obj.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool) or schema != INSTANCE_SCHEMA:
        raise ParseError(f"unsupported instance schema {schema!r}")
    for key in ("p", "n", "matrices"):
        if key not in obj:
            raise ParseError(f"instance is missing the {key!r} key")
    p, n, matrices = obj["p"], obj["n"], obj["matrices"]
    if not isinstance(p, int):
        raise ParseError(f"p must be an integer, got {p!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"n must be a positive integer, got {n!r}")
    field = PrimeField(p)
    if not isinstance(matrices, list) or not matrices:
        raise ParseError("matrices must be a nonempty list")
    gens = []
    for mi, rows in enumerate(matrices):
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f"matrix {mi} must have {n} rows")
        # One check per row (type(x) is int rejects bools); only a matrix that
        # fails it goes through the entries one by one, to name the first bad one.
        if not all(
            type(row) is list and len(row) == n and set(map(type, row)) == {int} and 0 <= min(row) and max(row) < p
            for row in rows
        ):
            for ri, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != n:
                    raise ParseError(
                        f"matrix {mi} row {ri} has {len(row) if isinstance(row, list) else 'no'} entries, expected {n}"
                    )
                for ci, x in enumerate(row):
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise ParseError(f"matrix {mi} entry ({ri},{ci}) is not an integer")
                    if not 0 <= x < p:
                        raise ParseError(
                            f"matrix {mi} entry ({ri},{ci}) = {x} outside [0, {p})"
                        )
        gens.append(Matrix(field, rows))
    return GeneratingSet(field=field, n=n, gens=tuple(gens))


def load_instance(path: str) -> GeneratingSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    return parse_instance(obj)


def length_report_to_json(rep: LengthReport) -> dict:
    return {
        "n": rep.n,
        "dims": list(rep.dims),
        "length": rep.length,
        "generated_dim": rep.generated_dim,
        "is_generating": rep.is_generating,
    }


def ledger_to_json(ledger: BoundLedger) -> list[dict]:
    return [
        {
            "name": e.name,
            "bound_value": e.bound_value,
            "applicable": e.applicable,
            "hypothesis_note": e.hypothesis_note,
        }
        for e in ledger.entries
    ]


def certificate_to_json(cert: RankCertificate) -> dict:
    return {
        "exponents": {str(lam): a for lam, a in cert.exponents},
        "degree": cert.degree,
        "achieved_rank": cert.achieved_rank,
        "witness": cert.witness.entries.tolist(),
    }


def analysis_to_json(a: GeneratorAnalysis) -> dict:
    out: dict[str, Any] = {"index": a.index, "minpoly_degree": a.degree}
    if a.spectrum is not None:
        out["spectrum"] = [[lam, e] for lam, e in a.spectrum.roots]
    if a.profile is not None:
        out["jordan_profile"] = {str(lam): list(sizes) for lam, sizes in sorted(a.profile.blocks.items())}
    if a.split_error is not None:
        out["not_split"] = a.split_error
    return out


def collect_violations(ledger: BoundLedger, rep: LengthReport) -> list[dict]:
    """Applicable ledger entries the computed length exceeds."""
    if rep.length is None:
        return []
    return [
        {"bound": e.name, "bound_value": e.bound_value, "length": rep.length}
        for e in ledger.entries
        if e.applicable and rep.length > e.bound_value
    ]


def analysis_fields(analyses: list[GeneratorAnalysis], ledger: BoundLedger) -> dict:
    """The m_S, generators, ledger and certificates keys of an analyze or verify record."""
    return {
        "m_S": max(a.degree for a in analyses),
        "generators": [analysis_to_json(a) for a in analyses],
        "ledger": ledger_to_json(ledger),
        "certificates": {
            str(a.index): {str(r): certificate_to_json(c) for r, c in a.certificates.items()}
            for a in analyses
            if a.certificates
        },
    }


def evaluate_instance(gs: GeneratingSet, rep: LengthReport) -> dict:
    """A verify record's fields below its header, checked against rep = compute_length(gs)."""
    analyses = analyze_generators(gs)
    ledger = bound_ledger(gs, analyses)
    record: dict[str, Any] = {
        **analysis_fields(analyses, ledger),
        "length_report": length_report_to_json(rep),
        "violations": collect_violations(ledger, rep),
        "flags": [],
    }
    if rep.length is not None and rep.length > 2 * gs.n - 2:
        record["flags"].append("length_exceeds_2n_minus_2")
    return record


# write_canonical_json hands its text to the sink once more than
# WRITE_FRAGMENTS fragments are pending before a list element. Running the
# seed-0 fuzz campaign and writing its 3.4 MB report peaked at 35.4, 35.5,
# 36.1, 37.8 and 44.3 MB with 256, 1024, 4096, 16384 and 65536 (52.4-52.6 MB
# as one write); the write took 0.056 s at 4096 and 0.057-0.100 s at the
# others (fastest of 7, 2-core x86 VM).
WRITE_FRAGMENTS = 4096


def write_canonical_json(body: dict, write: Callable[[str], object]) -> None:
    """Deterministic serialization, in chunks: sorted keys, fixed separators, newline-terminated.

    The chunks join to what json.dumps(body, sort_keys=True, indent=2,
    separators=(",", ": ")) + "\n" writes (kept as the reference in the
    tests), written for the types a report holds: dicts with str keys,
    lists, ints, strs, bools and None. An iterator is written as the list
    of what it yields, taken one element at a time. Anything else, such as
    a float, a tuple or a numpy scalar, raises TypeError. json.dumps runs its
    pure-Python encoder whenever it indents; here a list of ints is one
    join and strings go through json's own C escaper.
    """
    out: list[str] = []
    put = out.append

    def emit(o: Any, nl: str) -> None:
        # nl is the newline and indent that precede the closing bracket of o.
        t = type(o)
        if t is str:
            put(encode_basestring_ascii(o))
        elif t is int:
            put(int.__repr__(o))
        elif t is list and o and set(map(type, o)) == {int}:
            inner = nl + "  "
            put("[" + inner + ("," + inner).join(map(int.__repr__, o)) + nl + "]")
        elif t is dict:
            if not o:
                put("{}")
                return
            inner = nl + "  "
            pre = "{" + inner
            for k in sorted(o):
                # The escaper raises TypeError on a key that is not a str.
                put(pre + encode_basestring_ascii(k) + ": ")
                emit(o[k], inner)
                pre = "," + inner
            put(nl + "}")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif o is None:
            put("null")
        elif t is list or isinstance(o, Iterator):
            inner = nl + "  "
            pre = "[" + inner
            for x in o:
                if len(out) > WRITE_FRAGMENTS:
                    write("".join(out))
                    out.clear()
                put(pre)
                emit(x, inner)
                pre = "," + inner
            put("[]" if pre[0] == "[" else nl + "]")
        else:
            raise TypeError(f"a report cannot hold {t.__name__} values")

    emit(body, "\n")
    put("\n")
    write("".join(out))


class Summary:
    """A report's summary block, folded in one record at a time.

    `fields` is the block. `warned` says whether a record carried warnings;
    it is not part of the block.
    """

    def __init__(self) -> None:
        self.fields: dict[str, Any] = {
            "instances": 0, "evaluated": 0, "skipped": 0, "violation_count": 0,
            "max_length_by_n": {}, "paz_conjecture_flags": [], "generation_retries": 0,
        }
        self.warned = False

    def add(self, r: dict) -> dict:
        """Fold r into the summary and return it."""
        f = self.fields
        f["instances"] += 1
        f["generation_retries"] += r.get("retries", 0)
        self.warned = self.warned or "warnings" in r
        if "skipped" in r:
            f["skipped"] += 1
            return r
        f["evaluated"] += 1
        f["violation_count"] += len(r.get("violations", ()))
        rep = r.get("length_report")
        if rep and rep.get("length") is not None:
            by_n, key = f["max_length_by_n"], str(r["n"])
            by_n[key] = max(by_n.get(key, 0), rep["length"])
        if "length_exceeds_2n_minus_2" in r.get("flags", ()):
            # Without an index, a flag names the record's place among the evaluated ones.
            f["paz_conjecture_flags"].append(r.get("index", f["evaluated"] - 1))
        return r


def make_report(command: str, config: dict, instances: Iterable[dict], summary: Summary) -> dict:
    """Assemble the uniform report body; each instance passes through summary.add.

    A list is folded here. Any other iterable stays lazy: each record is
    folded as the writer takes it and is then dropped. Keys are written
    sorted, so "instances" precedes "summary", which is complete by then.
    """
    records = map(summary.add, instances)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "command": command,
        "config": config,
        "instances": list(records) if isinstance(instances, list) else records,
        "summary": summary.fields,
    }


def csv_lines(report: dict) -> Iterator[str]:
    """Flat per-instance summary with the spec's column set: the header line,
    then one line per record, each taken from the report as it is written."""
    # writerow returns what the file's write returns: here, the line itself.
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    yield writer.writerow(
        [
            "instance_id",
            "family",
            "n",
            "p",
            "seed",
            "m_S",
            "length",
            "tightest_applicable_bound",
            "violation",
        ]
    )
    for i, r in enumerate(report["instances"]):
        ledger = r.get("ledger", [])
        applicable = [e["bound_value"] for e in ledger if e["applicable"]]
        rep = r.get("length_report") or {}
        yield writer.writerow(
            [
                r.get("index", i),
                r.get("family", ""),
                r.get("n", ""),
                r.get("p", ""),
                r.get("seed", ""),
                r.get("m_S", ""),
                rep.get("length", ""),
                min(applicable) if applicable else "",
                ";".join(v["bound"] for v in r.get("violations", ())),
            ]
        )
