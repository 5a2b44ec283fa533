"""Command-line front end.

Exit codes: 0 success / verified, 1 legitimate negative answer, 2 usage or
input error, 3 indeterminate (timeout), 4 a fault inside mpart, such as a
damaged or missing generation.bin or a broken invariant.  Machine-parseable
output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

from . import __version__
from . import obstruction as ob
from . import pattern as pat
from . import recognize as rec
from . import solver as sv
from .errors import InternalError, MPartError
from .graph import Graph, parse_edge_list, parse_graph6, to_graph6


class _Timeout(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise MPartError(f"{path}: not UTF-8 text ({exc.reason} at offset {exc.start})") from exc


def _load_matrix(args) -> pat.PatternMatrix:
    if (args.matrix is None) == (args.matrix_file is None):
        raise MPartError("exactly one matrix source required (--matrix or --matrix-file)")
    if args.matrix is not None:
        return pat.parse_matrix(args.matrix)
    return pat.parse_matrix(_read_text(args.matrix_file))


def _load_graph(args) -> Graph:
    sources = [s for s in (args.graph, args.edges, args.graph_file) if s]
    if len(sources) != 1:
        raise MPartError("exactly one graph source required (--graph, --edges or --graph-file)")
    if args.graph:
        return parse_graph6(args.graph)
    if args.edges:
        return parse_edge_list(args.edges)
    text = _read_text(args.graph_file).strip()
    return parse_edge_list(text) if ";" in text else parse_graph6(text)


def _matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", help="matrix text: rows over 0, 1 and *, separated by ';'")
    p.add_argument("--matrix-file", help="file holding the matrix text")


def _graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph6 string")
    p.add_argument("--edges", help="edge list: 'n; u-v, u-v, ...'")
    p.add_argument("--graph-file", help="file holding a graph6 string or edge list")


def _seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds >= 0, got {text!r}")
    return value


def _jobs(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of jobs >= 1, got {text!r}")
    return value


def _answered(args) -> None:
    """Disarm the --timeout alarm: the answer is computed, and an alarm
    while it is written or saved must not turn it into exit 3."""
    if args.timeout:
        signal.setitimer(signal.ITIMER_REAL, 0)


def cmd_solve(args) -> int:
    M = _load_matrix(args)
    G = _load_graph(args)
    witness = sv.solve(G, M)
    _answered(args)
    if witness is None:
        print(json.dumps({"result": "no-partition"}))
        return 1
    print(json.dumps({"parts": list(witness.parts)}))
    return 0


def cmd_check_minimal(args) -> int:
    M = _load_matrix(args)
    G = _load_graph(args)
    status, payload = ob.classify_minimality(G, M)
    _answered(args)
    if status == "partitionable":
        print(json.dumps({"status": "partitionable", "witness": list(payload.parts)}))
    elif status == "not-minimal":
        print(json.dumps({"status": "obstruction-not-minimal", "still_obstructed_without": payload}))
    else:
        print(json.dumps({
            "status": "minimal-obstruction",
            "certificate": {"witnesses": [list(w.parts) for w in payload]},
        }))
    return 0


def cmd_enumerate(args) -> int:
    M = _load_matrix(args)
    report = ob.enumerate_minimal_obstructions(M, args.class_name, args.max_n, jobs=args.jobs)
    _answered(args)
    ob.save_catalog(report, args.data_dir)
    sys.stdout.write(ob.report_to_tsv(report) if args.output == "tsv"
                     else ob.report_to_json(report) + "\n")
    return 0


def cmd_construct(args) -> int:
    if args.kind == "mkt":
        M = pat.make_m_kt(args.k, args.t)
        print(json.dumps({"kind": "mkt", "k": args.k, "t": args.t, "matrix": M.to_text()}))
    elif args.kind == "thm5":
        M, G = ob.construct_theorem5(args.n)
        print(json.dumps({
            "kind": "thm5", "n": args.n, "graph6": to_graph6(G),
            "n_vertices": G.n, "matrix": M.to_text(),
            "vertex_order": "special vertex, clique, independent mates, subset vertices",
        }))
    else:
        G = ob.construct_gt(args.t)
        print(json.dumps({
            "kind": "gt", "t": args.t, "graph6": to_graph6(G), "n_vertices": G.n,
            "vertex_order": "path vertices then the dominating interior vertex",
        }))
    return 0


def cmd_recognize(args) -> int:
    G = _load_graph(args)
    cls = args.class_name
    witness = rec.RECOGNIZERS[cls](G)
    if witness is None:
        print(json.dumps({"result": "not-in-class", "class": cls}))
        return 1
    if cls == "split":
        out = {"clique": [v for v, s in enumerate(witness) if s],
               "independent": [v for v, s in enumerate(witness) if not s]}
    elif cls == "chordal":
        out = {"elimination_order": list(witness)}
    else:
        out = {"coloring": list(witness)}
    print(json.dumps({"class": cls, **out}))
    return 0


def cmd_verify(args) -> int:
    from . import verify as vf  # only this command reads it; the rest start without it

    all_ok = True
    for name, budget, level, check in vf.CRITERIA:
        if args.level == "quick" and level != "quick":
            continue
        ok, line = vf.run_criterion(name, budget, check)
        all_ok = all_ok and ok
        print(line)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpart", description=__doc__)
    parser.add_argument("--version", action="version", version=f"mpart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide partitionability, print a witness")
    _matrix_args(p)
    _graph_args(p)
    p.add_argument("--timeout", type=_seconds, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check-minimal", help="classify obstruction minimality")
    _matrix_args(p)
    _graph_args(p)
    p.add_argument("--timeout", type=_seconds, default=0)
    p.set_defaults(func=cmd_check_minimal)

    p = sub.add_parser("enumerate", help="enumerate minimal obstructions in a class")
    _matrix_args(p)
    p.add_argument("--class", dest="class_name", default="all",
                   choices=sorted(ob.CLASS_LIMITS))
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="accepted for compatibility and ignored: enumeration runs in one process")
    p.add_argument("--output", choices=("json", "tsv"), default="json")
    p.add_argument("--data-dir", default="data")
    p.add_argument("--timeout", type=_seconds, default=0)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("construct", help="build the explicit families")
    csub = p.add_subparsers(dest="kind", required=True)
    c = csub.add_parser("mkt")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--t", type=int, required=True)
    c = csub.add_parser("thm5")
    c.add_argument("--n", type=int, required=True)
    c = csub.add_parser("gt")
    c.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("recognize", help="graph-class recognition with witness")
    p.add_argument("--class", dest="class_name", required=True,
                   choices=sorted(rec.RECOGNIZERS))
    _graph_args(p)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    timeout = getattr(args, "timeout", 0)
    if timeout:
        def _raise(signum, frame):
            raise _Timeout

        signal.signal(signal.SIGALRM, _raise)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        except OverflowError as exc:
            parser.error(f"argument --timeout: {timeout:g} seconds is too large for the timer ({exc})")
    try:
        return args.func(args)
    except _Timeout:
        print(json.dumps({"result": "indeterminate", "reason": "timeout"}))
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (MPartError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only a fault reads it

        traceback.print_exc()
        return 4
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)


if __name__ == "__main__":
    raise SystemExit(main())
