"""Configuration-driven command line front end.

Subcommands: describe, strata, flag-strata, coarse-strata, hasse, char-test,
n-alpha, cone, purity, scan, golden.  Configuration is a JSON file; all output
is byte-deterministic for a fixed configuration.  Exit codes: 0 success,
2 invalid configuration or datum, 3 requested witness infeasible.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, golden, sections, strata
from .rootsystem import RootDatumError, build_root_datum
from .sections import CONVENTION
from .weyl import WeylError, WeylGroup
from .zipdatum import ZipDatumError, dims, flag_datum, validate_frame, zip_from_cochar

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class ConfigError(ValueError):
    pass


# -- configuration ------------------------------------------------------------------

def _load_config(path):
    if path is None:
        raise ConfigError("this subcommand requires --config")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e)
    except json.JSONDecodeError as e:
        raise ConfigError("config is not valid JSON: %s" % e)


def _galois_spec(cfg):
    g = cfg.get("galois")
    if g is None:
        return None
    if isinstance(g, str):
        return g
    if "matrix" in g:
        return {"matrix": g["matrix"], "order": g.get("order", 1)}
    perm = list(g.get("perm", []))
    if not perm or perm == list(range(1, len(perm) + 1)):
        return None
    preset = cfg.get("group", {}).get("preset") or ""
    if perm == list(range(len(perm), 0, -1)) and \
            (preset.startswith("A") or preset.startswith("GL")):
        return "flip"
    n = len(perm)
    if n >= 2 and perm == list(range(1, n - 1)) + [n, n - 1] and preset.startswith("D"):
        return "dswap"
    raise ConfigError("config.galois: give an explicit matrix for this permutation")


def _group_from_config(cfg):
    group = cfg.get("group")
    if not isinstance(group, dict):
        raise ConfigError("config.group must be an object")
    if "preset" in group:
        spec = group["preset"]
    elif "explicit" in group:
        spec = group["explicit"]
    else:
        raise ConfigError("config.group needs 'preset' or 'explicit'")
    try:
        rd = build_root_datum(spec, galois=_galois_spec(cfg))
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
    FZ = None
    if "I0" in cfg:
        FZ = flag_datum(Z, tuple(i - 1 for i in cfg["I0"]))
    return Z, FZ


def _parse_label(wg, spec):
    if isinstance(spec, str):
        if spec == "e":
            return wg.e
        if spec.startswith("["):
            return wg.from_bracket(spec)
        raise ConfigError("config.w: use a bracket like \"[351]\", \"e\", or a word list")
    return wg.from_word([i - 1 for i in spec])


def _characters(cfg, rank):
    chars = cfg.get("characters", [])
    out = []
    for c in chars:
        if len(c) != rank:
            raise ConfigError("character %r does not match rank %d" % (c, rank))
        out.append(tuple(int(x) for x in c))
    return out


# -- serialization ------------------------------------------------------------------

def _plain(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else str(x.numerator)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _bundle(kind, payload):
    return {
        "schema": "zipstrata/1",
        "tool": {"name": "zipstrata", "version": __version__,
                 "convention": CONVENTION},
        "kind": kind,
        "payload": _plain(payload),
    }


def _emit(out, text):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(bundle, fmt):
    if fmt == "json":
        return json.dumps(bundle, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        lines = ["# zipstrata %s (%s)" % (__version__, bundle["kind"])]
        lines += _text_lines(bundle["payload"], "")
        return "\n".join(lines) + "\n"
    raise ConfigError("format %r not supported for this subcommand" % fmt)


def _text_lines(obj, indent):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (indent, k))
                lines += _text_lines(v, indent + "  ")
            else:
                lines.append("%s%s: %s" % (indent, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append("%s-" % indent)
                lines += _text_lines(v, indent + "  ")
            else:
                lines.append("%s- %s" % (indent, v))
    else:
        lines.append("%s%s" % (indent, obj))
    return lines


def _poset_payload(poset):
    nodes = [{"label": s.label, "length": s.length,
              "variety_dim": s.variety_dim, "stack_dim": s.stack_dim}
             for s in poset.strata]
    edges = [[poset.strata[i].label, poset.strata[j].label] for i, j in poset.covers]
    return {"side": poset.side, "nodes": nodes, "edges": edges}


def _poset_dot(poset):
    lines = ["digraph strata {"]
    for s in poset.strata:
        lines.append('  "%s" [label="%s (l=%d)"];' % (s.label, s.label, s.length))
    for i, j in poset.covers:
        lines.append('  "%s" -> "%s";' % (poset.strata[i].label, poset.strata[j].label))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cone_payload(c):
    return {
        "stratum": c.stratum,
        "lattice": c.lattice,
        "basis": [list(b) for b in c.basis],
        "walls": [list(a) for a in c.walls],
        "inequalities_ambient": [list(r) for r in c.ambient_rows],
        "inequalities_reduced": [list(r) for r in c.reduced_rows],
        "feasible": c.feasible,
        "witness": list(c.witness) if c.witness is not None else None,
        "certificate": [str(x) for x in c.certificate] if c.certificate else None,
    }


def _purity_payload(rep):
    return {
        "datum": rep.datum,
        "lattice": rep.lattice,
        "convention": rep.convention,
        "box_radius": rep.box_radius,
        "principally_pure": rep.principally_pure,
        "uniformly_pure": rep.uniformly_pure,
        "uniform_witness": list(rep.uniform_witness) if rep.uniform_witness else None,
        "ample_close_char": list(rep.ample_close_char) if rep.ample_close_char else None,
        "failing_strata": list(rep.failing_strata()),
        "strata": [_cone_payload(c) for c in rep.strata],
    }


# -- subcommands ---------------------------------------------------------------------

def _cmd_describe(Z, FZ, args):
    d = dims(FZ if FZ else Z)
    payload = {"datum": Z.describe(), "dims": d.as_dict(),
               "frame_violations": validate_frame(Z)}
    if FZ:
        payload["I0"] = [i + 1 for i in FZ.I0]
        payload["J0"] = [j + 1 for j in FZ.J0]
        payload["induced"] = FZ.Z0.describe()
    return _bundle("describe", payload)


def _stratum_payload(s):
    return {"label": s.label, "side": s.side, "length": s.length,
            "variety_dim": s.variety_dim, "stack_dim": s.stack_dim}


def _cmd_strata(Z, FZ, args):
    out = [_stratum_payload(s) for s in strata.zip_strata(Z, args.side)]
    return _bundle("strata", {"count": len(out), "strata": out})


def _cmd_flag_strata(Z, FZ, args):
    if FZ is None:
        raise ConfigError("flag-strata requires config.I0")
    out = [_stratum_payload(s) for s in strata.fine_strata(FZ, args.side)]
    return _bundle("flag-strata", {"count": len(out), "strata": out})


def _cmd_coarse_strata(Z, FZ, args):
    if FZ is None:
        raise ConfigError("coarse-strata requires config.I0")
    rows = [{"label": s.label, "length": s.length,
             "I_w": [i + 1 for i in s.I_w],
             "reference_dim": s.reference_dim, "derived_dim": s.derived_dim}
            for s in strata.coarse_strata(FZ)]
    return _bundle("coarse-strata", {"count": len(rows), "strata": rows})


def _cmd_char_test(Z, FZ, cfg, args):
    rd = Z.rd
    rows = []
    for chi in _characters(cfg, rd.rank):
        v = sections.character_tests(rd, chi, Z.q)
        amp, wit = sections.ampleness(Z, chi)
        row = {"chi": list(chi), "q_small": v.q_small,
               "orbitally_q_close": v.orbitally_q_close,
               "zip_ample": amp, "witnesses": v.witnesses}
        if not amp:
            row["witnesses"] = dict(row["witnesses"], zip_ample=wit)
        if FZ is not None:
            fa, fwit = sections.flag_ampleness(FZ, chi)
            row["flag_ample"] = fa
            if not fa:
                row["witnesses"] = dict(row["witnesses"], flag_ample=fwit)
        rows.append(row)
    return _bundle("char-test", {"q": Z.q, "characters": rows})


def _cmd_n_alpha(Z, FZ, cfg, args):
    Zt = FZ.Z0 if FZ else Z
    wg = Zt.wg
    if "w" not in cfg:
        raise ConfigError("n-alpha requires config.w")
    w = _parse_label(wg, cfg["w"])
    rows = []
    for chi in _characters(cfg, Zt.rd.rank):
        sv = sections.char_section_verdict(Zt, w, chi)
        rows.append({"chi": list(chi),
                     "multiplicities": [[list(a), str(n)] for a, n in sv.multiplicities],
                     "verdict": sv.verdict,
                     "r_w": sv.r_w, "m": sv.m, "period": sv.period})
    return _bundle("n-alpha", {"stratum": wg.describe(w), "rows": rows,
                               "convention": CONVENTION})


def _cmd_cone(Z, FZ, cfg, args):
    Zt = FZ.Z0 if FZ else Z
    wg = Zt.wg
    if "w" not in cfg:
        raise ConfigError("cone requires config.w")
    w = _parse_label(wg, cfg["w"])
    cone = sections.section_cone(Zt, w, args.lattice)
    bundle = _bundle("cone", _cone_payload(cone))
    return bundle, (EXIT_OK if cone.feasible else EXIT_INFEASIBLE)


def _cmd_purity(Z, FZ, cfg, args):
    rep = sections.purity_report(FZ if FZ else Z, lattice=args.lattice,
                                 box=args.box,
                                 candidates=_characters(cfg, Z.rd.rank))
    return _bundle("purity", _purity_payload(rep))


def _cmd_scan(cfg, args):
    primes = cfg.get("primes", [])
    types = cfg.get("types")
    if types is None:
        if "I" not in cfg:
            raise ConfigError("scan requires 'types' or 'I' in the config")
        types = [cfg["I"]]
    rd, wg = _group_from_config(cfg)     # W does not depend on p or the type
    results = []
    for t in types:
        for p in primes:
            try:
                Z, FZ = _datum_from_config(dict(cfg, I=list(t), p=p), rd, wg)
                rep = sections.purity_report(FZ if FZ else Z, lattice=args.lattice,
                                             box=args.box,
                                             candidates=_characters(cfg, rd.rank))
                results.append({"I": list(t), "p": p, "ok": True,
                                "principally_pure": rep.principally_pure,
                                "uniformly_pure": rep.uniformly_pure,
                                "uniform_witness": list(rep.uniform_witness)
                                if rep.uniform_witness else None,
                                "failing_strata": list(rep.failing_strata())})
            except Exception as e:  # per-cell failures reported, scan continues
                results.append({"I": list(t), "p": p, "ok": False, "error": str(e)})

    summary = {}
    for t in types:
        key = json.dumps(list(t))
        firsts = [r["p"] for r in results
                  if r["I"] == list(t) and r.get("uniformly_pure")]
        summary[key] = {"first_uniform_prime": min(firsts) if firsts else None}
    return _bundle("scan", {"cells": results, "summary": summary})


def _cmd_golden(args):
    ok, report = golden.golden_report()
    sys.stdout.write(report)
    return EXIT_OK if ok else 1


# -- entry point ---------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(prog="zipstrata", description=__doc__)
    ap.add_argument("command", choices=["describe", "strata", "flag-strata",
                                        "coarse-strata", "hasse", "char-test",
                                        "n-alpha", "cone", "purity", "scan",
                                        "golden"])
    ap.add_argument("--config", default=None, help="path to the JSON configuration")
    ap.add_argument("--format", default="json", choices=["json", "text", "dot"])
    ap.add_argument("--out", default=None, help="write output to a file")
    ap.add_argument("--lattice", default="levi", choices=["torus", "levi"])
    ap.add_argument("--box", type=int, default=2,
                    help="search radius for the sufficient-condition character")
    ap.add_argument("--workers", type=int, default=1,
                    help="ignored (scan runs sequentially); kept so existing "
                         "command lines still parse")
    ap.add_argument("--side", default="I", choices=["I", "J"],
                    help="stratum parametrization side")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "golden":
            return _cmd_golden(args)
        cfg = _load_config(args.config)
        if args.command == "scan":
            bundle = _cmd_scan(cfg, args)
            _emit(args.out, _render(bundle, args.format))
            return EXIT_OK
        Z, FZ = _datum_from_config(cfg, *_group_from_config(cfg))
        code = EXIT_OK
        if args.command == "describe":
            bundle = _cmd_describe(Z, FZ, args)
        elif args.command == "strata":
            bundle = _cmd_strata(Z, FZ, args)
        elif args.command == "flag-strata":
            bundle = _cmd_flag_strata(Z, FZ, args)
        elif args.command == "coarse-strata":
            bundle = _cmd_coarse_strata(Z, FZ, args)
        elif args.command == "hasse":
            poset = strata.fine_hasse_diagram(FZ, args.side) if FZ \
                else strata.hasse_diagram(Z, args.side)
            if args.format == "dot":
                _emit(args.out, _poset_dot(poset))
                return EXIT_OK
            bundle = _bundle("hasse", _poset_payload(poset))
        elif args.command == "char-test":
            bundle = _cmd_char_test(Z, FZ, cfg, args)
        elif args.command == "n-alpha":
            bundle = _cmd_n_alpha(Z, FZ, cfg, args)
        elif args.command == "cone":
            bundle, code = _cmd_cone(Z, FZ, cfg, args)
        elif args.command == "purity":
            bundle = _cmd_purity(Z, FZ, cfg, args)
        else:  # pragma: no cover
            raise ConfigError("unknown command")
        _emit(args.out, _render(bundle, args.format))
        return code
    except (ConfigError, RootDatumError, WeylError, ZipDatumError,
            strata.StrataError, sections.SectionError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
