"""Command-line driver: `fvvem run ...` and `fvvem study ...`.

Exit codes: 0 on success (gates pass) and for --help, 2 on an
acceptance-gate failure, 1 on any error, a usage error included.  A config
file with `key = value` lines supplies the same options but the case;
command-line flags override the file.
"""

from __future__ import annotations

import argparse
import sys

from . import cases as case_lib
from .runner import convergence_study, run_case


def _parse_config_file(path: str) -> dict:
    """`key = value` lines; every `param` line is one --param entry, and any
    other key may appear once."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "param":
                out.setdefault(key, []).append(val)
            elif key in out:
                raise ValueError(f"{path}:{lineno}: key '{key}' given twice")
            else:
                out[key] = val
    return out


# keys of `--mesh gen:...` -> the case parameter each one sets
GEN_KEYS = {"h": "h", "seed": "seed", "n": "n_cells"}


def _parse_mesh_arg(arg: str):
    """`file.msh` or `gen:h=0.2,seed=3[,n=400]`; returns the mesh file (or
    None) and the case parameters that the generator keys set."""
    if arg is None:
        return None, {}
    if arg.startswith("gen:"):
        opts = {}
        for part in arg[4:].split(","):
            if not part:
                continue
            key, sep, val = (s.strip() for s in part.partition("="))
            if key not in GEN_KEYS or not sep:
                raise ValueError(f"--mesh gen: unknown key '{key}' "
                                 f"(expected one of {', '.join(GEN_KEYS)}, as key=value)")
            kind = float if key == "h" else int
            try:
                opts[GEN_KEYS[key]] = kind(val)
            except ValueError:
                raise ValueError(f"--mesh gen: key '{key}' takes {kind.__name__} values, "
                                 f"not '{val}'") from None
        return None, opts
    return arg, {}


def _coerce(val: str):
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    if val in ("true", "True"):
        return True
    if val in ("false", "False"):
        return False
    return val


def _build_case(args):
    params = {}
    for spec in args.param or []:
        key, sep, val = spec.partition("=")
        if not sep:
            raise ValueError(f"--param '{spec}': expected key=value")
        params[key] = _coerce(val)
    mesh_file, gen = _parse_mesh_arg(args.mesh)
    params.update(gen)
    for key in ("order", "scheme", "cfl", "tend", "dt"):
        val = getattr(args, key)
        if val is not None:
            params[{"order": "k", "tend": "t_end"}.get(key, key)] = val
    case = case_lib.get_case(args.case, **params)
    return case, mesh_file


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fvvem",
                                     description="Hybrid FV/VEM incompressible-flow solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--case", required=True, choices=case_lib.case_names())
        p.add_argument("--mesh", help="mesh file or gen:h=H,seed=S[,n=N]")
        p.add_argument("--order", type=int, help="polynomial degree k (1..4)")
        p.add_argument("--scheme", choices=("SP111", "LSDIRK222", "SADIRK343"))
        p.add_argument("--cfl", type=float)
        p.add_argument("--tend", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--out", help="output path prefix (VTK/CSV/ledger)")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--param", action="append",
                       help="case parameter override, e.g. --param H0=1000")

    run_p = sub.add_parser("run", help="run a single case")
    common(run_p)
    study_p = sub.add_parser("study", help="convergence study over meshes")
    common(study_p)
    study_p.add_argument("--meshes", required=True,
                         help="comma-separated mesh sizes: target h values, or "
                              "cell counts n for the cases that read n_cells")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here is a failed gate's code
        return 1 if exc.code else 0
    try:
        # a file key applies where no flag was given
        overrides = _parse_config_file(args.config) if args.config else {}
        for key, val in overrides.items():
            if key == "case":
                raise ValueError(f"{args.config}: a config file cannot set the case; "
                                 "--case does")
            if key in ("command", "config") or not hasattr(args, key):
                raise ValueError(f"{args.config}: unknown key '{key}'")
            if getattr(args, key) in (None, False):
                setattr(args, key, val if key == "param" else _coerce(val))
        if args.command == "run":
            case, mesh_file = _build_case(args)
            result = run_case(case, out_prefix=args.out, quiet=args.quiet,
                              mesh_file=mesh_file)
            return 0 if result.gate_passed else 2
        # sweep the mesh size the case reads, through its --mesh gen: key
        param = case_lib.get_case(args.case).mesh_param
        if param is None:
            raise ValueError(f"case '{args.case}' has a fixed mesh: "
                             "it has no mesh size to sweep")
        key = next(k for k, v in GEN_KEYS.items() if v == param)
        sizes = args.meshes.split(",")
        mesh = args.mesh or "gen:"
        if not mesh.startswith("gen:"):
            raise ValueError(f"study sweeps generated meshes: the mesh file '{mesh}' "
                             "has no size to sweep")

        def build(size):
            # the swept size goes on top of the other --mesh gen: keys
            args.mesh = f"{mesh},{key}={size}"
            case, _ = _build_case(args)
            return case

        # every size is checked before the first run
        studied = {size: build(size) for size in sizes}
        convergence_study(studied.__getitem__, sizes, out_prefix=args.out, quiet=args.quiet)
        return 0
    except Exception as exc:                      # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
