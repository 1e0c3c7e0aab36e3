"""Configuration-driven command line front end.

Subcommands: describe, strata, flag-strata, coarse-strata, hasse, char-test,
n-alpha, cone, purity, scan, golden.  Configuration is a JSON file; all output
is byte-deterministic for a fixed configuration.  Exit codes: 0 success,
2 invalid configuration or datum, 3 requested witness infeasible.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, sections, strata
from .rootsystem import RootDatumError, build_root_datum
from .sections import CONVENTION
from .weyl import WeylError, WeylGroup
from .zipdatum import ZipDatumError, dims, flag_datum, validate_frame, zip_from_cochar

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

# the cap on the bit length of a character entry.  A wall multiplicity pairs a
# character with a wall row over at most RANK_CAP = 100 coordinates, and a row
# entry sums T terms q^i c with T * bits(q) <= ROW_BIT_CAP = 10,000 (so T <= 5,000)
# and c a coroot entry.  A coroot sums at most 200 simple coroots (its height is
# below the Coxeter number, at most 200 at rank 100), whose entries have at most
# ENTRY_BIT_CAP = 64 bits, so c has at most 72.  A multiplicity then has at most
# ROW_BIT_CAP + log2 T + 72 + CHAR_BIT_CAP + log2 RANK_CAP < 14,092 bits, under
# the 14,284 (4300 digits) that int-to-str allows
CHAR_BIT_CAP = 4_000


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------------

def _ints(x):
    return isinstance(x, list) and all(type(v) is int for v in x)   # JSON true is a bool


def _int_lists(x):
    return isinstance(x, list) and all(map(_ints, x))


# the JSON shape of each config value that is read as integers
_SHAPES = {"p": (lambda x: type(x) is int, "an integer prime"),
           "n": (lambda x: type(x) is int, "an integer"),
           "w": (lambda x: isinstance(x, str) or _ints(x), "a string or a list of integers"),
           "types": (lambda x: x is None or _int_lists(x), "a list of integer lists"),
           "characters": (_int_lists, "a list of integer lists"),
           **{k: (_ints, "a list of integers") for k in ("I", "I0", "mu", "primes")}}


def _load_config(path):
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e)
    except ValueError as e:     # bad JSON or UTF-8, or an integer too long for int()
        raise ConfigError("config is not valid JSON: %s" % e)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, (ok, shape) in _SHAPES.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigError("config.%s must be %s, got %r" % (key, shape, cfg[key]))
    return cfg


def _galois_spec(cfg):
    """The galois spec and the declared order (None for the spec's own) that
    `build_root_datum` reads off config.galois.  A permutation names the
    split, "flip" or "dswap" matrix, and its `order`, like a matrix's, is
    checked against that matrix."""
    g = cfg.get("galois")
    if g is None or isinstance(g, str):
        return g, None
    if isinstance(g, dict) and set(g) - {"order"} not in ({"matrix"}, {"perm"}):
        raise ConfigError("config.galois needs one of 'matrix' and 'perm', and at most "
                          "'order' besides; got keys %s" % sorted(g))
    if "matrix" in g:
        return {"matrix": g["matrix"], "order": g.get("order", 1)}, None
    perm, order = list(g.get("perm", [])), g.get("order")
    if not perm or perm == list(range(1, len(perm) + 1)):
        return None, order
    preset = cfg.get("group", {}).get("preset") or ""
    if perm == list(range(len(perm), 0, -1)) and \
            (preset.startswith("A") or preset.startswith("GL")):
        return "flip", order
    n = len(perm)
    if n >= 2 and perm == list(range(1, n - 1)) + [n, n - 1] and preset.startswith("D"):
        return "dswap", order
    raise ConfigError("config.galois: give an explicit matrix for this permutation")


def _group_from_config(cfg):
    group = cfg.get("group")
    if not isinstance(group, dict):
        raise ConfigError("config.group must be an object")
    if set(group) not in ({"preset"}, {"explicit"}):
        raise ConfigError("config.group needs exactly one of 'preset' and 'explicit'; "
                          "got keys %s" % sorted(group))
    (spec,) = group.values()
    try:
        galois, order = _galois_spec(cfg)
        rd = build_root_datum(spec, galois=galois, order=order)
    except (KeyError, TypeError, AttributeError) as e:
        raise ConfigError("malformed config.group or config.galois: %r" % (e,))
    return rd, WeylGroup(rd)


def _datum_from_config(cfg, rd, wg):
    p = cfg.get("p")
    n = cfg.get("n", 1)
    if not isinstance(p, int):
        raise ConfigError("config.p must be an integer prime")
    if "I" in cfg:
        I = tuple(i - 1 for i in cfg["I"])
        Z = zip_from_cochar(rd, I=I, n=n, p=p, wg=wg)
    elif "mu" in cfg:
        Z = zip_from_cochar(rd, mu=tuple(cfg["mu"]), n=n, p=p, wg=wg)
    else:
        raise ConfigError("config needs 'I' (1-based indices) or 'mu'")
    if "I0" in cfg:
        return flag_datum(Z, tuple(i - 1 for i in cfg["I0"]))
    return Z


def _parse_label(wg, spec):
    if isinstance(spec, str):
        if spec == "e":
            return wg.e
        if spec.startswith("["):
            return wg.from_bracket(spec)
        raise ConfigError("config.w: use a bracket like \"[351]\", \"e\", or a word list")
    m = wg.rd.num_simple
    for i in spec:
        if not 1 <= i <= m:
            raise ConfigError("config.w: letter %d is out of range 1..%d" % (i, m))
    return wg.from_word([i - 1 for i in spec])


def _characters(cfg, rank):
    chars = cfg.get("characters", [])
    for c in chars:
        bits = max(map(int.bit_length, c), default=0)
        if bits > CHAR_BIT_CAP:
            raise ConfigError("a character entry has %d bits, more than the cap %d"
                              % (bits, CHAR_BIT_CAP))
        if len(c) != rank:
            raise ConfigError("character %r does not match rank %d" % (c, rank))
    return [tuple(c) for c in chars]


# -- serialization ------------------------------------------------------------------

def _bundle(kind, payload):
    return {
        "schema": "zipstrata/1",
        "tool": {"name": "zipstrata", "version": __version__,
                 "convention": CONVENTION},
        "kind": kind,
        "payload": payload,
    }


def _emit(out, render):
    """Call render(write) with the write of stdout, or of the --out file.  A
    reader that closes stdout early fails the command like an unwritable file;
    stdout then points at the null device, so the interpreter's final flush of
    what is still buffered prints nothing."""
    if not out:
        try:
            render(sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError as e:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConfigError("cannot write output: %s" % e)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            render(fh.write)
    except OSError as e:
        raise ConfigError("cannot write output: %s" % e)


def _render(bundle, fmt, write):
    """json, text, or dot, which draws the nodes and edges of a `hasse`
    payload; `main` refuses dot for every other command."""
    if fmt == "json":
        _write_json(bundle, write)
        write("\n")
        return
    if fmt == "dot":
        write("digraph strata {\n")
        for s in bundle["payload"]["nodes"]:
            write('  "%s" [label="%s (l=%d)"];\n' % (s["label"], s["label"], s["length"]))
        for a, b in bundle["payload"]["edges"]:
            write('  "%s" -> "%s";\n' % (a, b))
        write("}\n")
        return
    lines = ["# zipstrata %s (%s)" % (__version__, bundle["kind"])]
    lines += _text_lines(bundle["payload"], "")
    write("\n".join(lines) + "\n")


def _write_json(obj, write, indent="\n", _ints=None):
    """Write obj exactly as json.dumps(obj, sort_keys=True, indent=2) would,
    piece by piece through `write`, so that no full-size copy of the output is
    held.  The stdlib encoder falls back to pure Python whenever indent is set;
    here a list of plain ints, the bulk of every payload, is one C-level join,
    and its text is kept by (identity, indent) for the rest of the call, since
    a payload repeats the same tuples (the Levi basis, the wall roots) in
    every stratum.  Dicts need str keys; str, int, bool and None are the only
    leaves, and anything else, a float included, raises TypeError."""
    if _ints is None:
        _ints = {}
    if isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        text = _ints.get((id(obj), indent))
        if text is not None:
            write(text)
            return
        inner = indent + "  "
        if all(type(v) is int for v in obj):       # a bool is an int, but not a plain one
            text = _ints[id(obj), indent] = \
                "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
            write(text)
            return
        sep = "[" + inner
        for v in obj:
            write(sep)
            _write_json(v, write, inner, _ints)
            sep = "," + inner
        write(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for k in sorted(obj):
            if not isinstance(k, str):
                raise TypeError("keys must be str, not %s" % type(k).__name__)
            write(sep + _quote(k) + ": ")
            _write_json(obj[k], write, inner, _ints)
            sep = "," + inner
        write(indent + "}")
    elif isinstance(obj, str):
        write(_quote(obj))
    elif obj is None:
        write("null")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _text_lines(obj, indent):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)):
                lines.append("%s%s:" % (indent, k))
                lines += _text_lines(v, indent + "  ")
            else:
                lines.append("%s%s: %s" % (indent, k, v))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append("%s-" % indent)
                lines += _text_lines(v, indent + "  ")
            else:
                lines.append("%s- %s" % (indent, v))
    else:
        lines.append("%s%s" % (indent, obj))
    return lines


# -- payloads: the library's tuples go to the writer as they are ---------------------

def _cone_payload(c):
    return {
        "stratum": c.stratum,
        "lattice": c.lattice,
        "basis": c.basis,
        "walls": c.walls,
        "inequalities_ambient": c.ambient_rows,
        "inequalities_reduced": c.reduced_rows,
        "feasible": c.feasible,
        "witness": c.witness,
        "certificate": c.certificate,
    }


def _verdict_payload(rep):
    """The verdict fields that `purity` and every `scan` cell print alike."""
    return {
        "principally_pure": rep.principally_pure,
        "uniformly_pure": rep.uniformly_pure,
        "uniform_witness": rep.uniform_witness or None,
        "uniform_certificate": rep.uniform_certificate,
        "failing_strata": rep.failing_strata,
    }


def _counted(rows):
    return {"count": len(rows), "strata": rows}


def _strata_payload(found):
    return _counted([{"label": s.label, "side": s.side, "length": s.length,
                      "variety_dim": s.variety_dim, "stack_dim": s.stack_dim}
                     for s in found])


def _poset_payload(poset):
    nodes = [{"label": s.label, "length": s.length,
              "variety_dim": s.variety_dim, "stack_dim": s.stack_dim}
             for s in poset.strata]
    edges = [[poset.strata[i].label, poset.strata[j].label] for i, j in poset.covers]
    return {"side": poset.side, "nodes": nodes, "edges": edges}


def _flagged(Z, args):
    if Z.base is None:
        raise ConfigError("%s requires config.I0" % args.command)
    return Z


def _stratum(Z, cfg, args):
    """The stratum that config.w labels."""
    if "w" not in cfg:
        raise ConfigError("%s requires config.w" % args.command)
    return _parse_label(Z.wg, cfg["w"])


# -- subcommands: (Z, cfg, args) -> payload, Z the flag level when the config sets I0

def _describe(Z, cfg, args):
    base = Z.base or Z
    payload = {"datum": base.describe(), "dims": dims(Z).as_dict(),
               "frame_violations": validate_frame(base)}
    if Z.base:
        payload["I0"] = [i + 1 for i in Z.I]
        payload["J0"] = [j + 1 for j in Z.J]
        payload["induced"] = Z.describe()
    return payload


def _coarse_strata(Z, cfg, args):
    return _counted([{"label": s.label, "length": s.length,
                      "I_w": [i + 1 for i in s.I_w],
                      "reference_dim": s.reference_dim, "derived_dim": s.derived_dim}
                     for s in strata.coarse_strata(_flagged(Z, args))])


def _char_test(Z, cfg, args):
    base, rows = Z.base or Z, []
    for chi in _characters(cfg, Z.rd.rank):
        v = sections.character_tests(Z.rd, chi, Z.q)
        amp, wit = sections.ampleness(base, chi)
        row = {"chi": chi, "q_small": v.q_small,
               "orbitally_q_close": v.orbitally_q_close,
               "zip_ample": amp, "witnesses": v.witnesses}
        if not amp:
            row["witnesses"] = dict(row["witnesses"], zip_ample=wit)
        if Z.base:
            fa, fwit = sections.flag_ampleness(Z, chi)
            row["flag_ample"] = fa
            if not fa:
                row["witnesses"] = dict(row["witnesses"], flag_ample=fwit)
        rows.append(row)
    return {"q": Z.q, "characters": rows}


def _n_alpha(Z, cfg, args):
    w, rows = _stratum(Z, cfg, args), []
    for chi in _characters(cfg, Z.rd.rank):
        sv = sections.char_section_verdict(Z, w, chi)
        rows.append({"chi": chi,
                     "multiplicities": [(a, str(n)) for a, n in sv.multiplicities],
                     "verdict": sv.verdict,
                     "r_w": sv.r_w, "m": sv.m, "period": sv.period})
    return {"stratum": Z.wg.describe(w), "rows": rows, "convention": CONVENTION}


def _cone(Z, cfg, args):
    return _cone_payload(sections.section_cone(Z, _stratum(Z, cfg, args), args.lattice))


def _purity(Z, cfg, args):
    rep = sections.purity_report(Z, lattice=args.lattice,
                                 candidates=_characters(cfg, Z.rd.rank))
    return {
        "datum": rep.datum,
        "lattice": rep.lattice,
        "convention": rep.convention,
        **_verdict_payload(rep),
        "ample_close_char": rep.ample_close_char or None,
        "strata": [_cone_payload(c) for c in rep.strata],
    }


# every command that reads one datum, in the order the parser lists them
_COMMANDS = {
    "describe": _describe,
    "strata": lambda Z, cfg, args: _strata_payload(
        strata.zip_strata(Z.base or Z, args.side)),
    "flag-strata": lambda Z, cfg, args: _strata_payload(
        strata.zip_strata(_flagged(Z, args), args.side)),
    "coarse-strata": _coarse_strata,
    "hasse": lambda Z, cfg, args: _poset_payload(strata.hasse_diagram(Z, args.side)),
    "char-test": _char_test,
    "n-alpha": _n_alpha,
    "cone": _cone,
    "purity": _purity,
}


def _scan(cfg, args):
    primes = cfg.get("primes", [])
    types = cfg.get("types")
    if types is None:
        if "I" not in cfg:
            raise ConfigError("scan requires 'types' or 'I' in the config")
        types = [cfg["I"]]
    rd, wg = _group_from_config(cfg)     # W does not depend on p or the type
    candidates = _characters(cfg, rd.rank)
    results = []
    for t in types:
        for p in primes:
            try:
                Z = _datum_from_config(dict(cfg, I=list(t), p=p), rd, wg)
                rep = sections.purity_verdict(Z, lattice=args.lattice, candidates=candidates)
                results.append({"I": list(t), "p": p, "ok": True, **_verdict_payload(rep)})
            except Exception as e:  # per-cell failures reported, scan continues
                results.append({"I": list(t), "p": p, "ok": False, "error": str(e),
                                "error_type": type(e).__name__})

    summary = {}
    for t in types:
        key = json.dumps(list(t))
        firsts = [r["p"] for r in results
                  if r["I"] == list(t) and r.get("uniformly_pure")]
        summary[key] = {"first_uniform_prime": min(firsts) if firsts else None}
    return {"cells": results, "summary": summary}


# -- entry point ---------------------------------------------------------------------

def build_parser():
    # argparse's width with no terminal, so that help and usage errors wrap
    # alike everywhere; a fixed width also spares a terminal query per argument
    ap = argparse.ArgumentParser(prog="zipstrata", description=__doc__,
                                 formatter_class=partial(argparse.HelpFormatter, width=78))
    ap.add_argument("command", choices=[*_COMMANDS, "scan", "golden"])
    ap.add_argument("--config", default=None, help="path to the JSON configuration")
    ap.add_argument("--format", default="json", choices=["json", "text", "dot"])
    ap.add_argument("--out", default=None, help="write output to a file")
    ap.add_argument("--lattice", default="levi", choices=["torus", "levi"])
    ap.add_argument("--workers", type=int, default=1,
                    help="ignored (scan runs sequentially); kept so existing "
                         "command lines still parse")
    ap.add_argument("--side", default="I", choices=["I", "J"],
                    help="stratum parametrization side")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.format == "dot" and args.command not in ("hasse", "golden"):
            raise ConfigError("format %r not supported for this subcommand" % args.format)
        if args.command == "golden":
            from . import golden    # only this command runs the gate
            ok, report = golden.golden_report()
            _emit(args.out, lambda write: write(report))
            return EXIT_OK if ok else 1
        cfg = _load_config(args.config)
        if args.command == "scan":
            payload = _scan(cfg, args)
        else:
            Z = _datum_from_config(cfg, *_group_from_config(cfg))
            payload = _COMMANDS[args.command](Z, cfg, args)
        _emit(args.out, partial(_render, _bundle(args.command, payload), args.format))
        return EXIT_INFEASIBLE if args.command == "cone" and not payload["feasible"] \
            else EXIT_OK
    except (ConfigError, RootDatumError, WeylError, ZipDatumError,
            strata.StrataError, sections.SectionError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
