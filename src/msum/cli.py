"""Command line entry points.

Everything printed here is a rendering of library results; the paper tables
are regenerated, never pasted. Exit codes, the same for every command:
0 verified / ok; 1 violations found (`verify` only); 2 the command could not
answer: a usage error, a refused input (among them a pair that is not
coprime, a modulus beyond the engines' range, an unknown claim or a flag the
claim does not take, a store the loader refuses or cannot read or write, and
a report path that cannot be written) or a failed internal check; 3 a bounded
search hit its cap. One handler, `_Main.invoke`, maps every package error to
2 or 3 with one line on stderr.
"""
from __future__ import annotations

import csv
import io
import json
import os

import click

from . import campaign, engine
from .cyclo import corollary13_exceptions
from .errors import DomainError, MsumError, NotFoundWithinCap
from .modular import gcd_table, instance
from .towers import tower_sequence


def _witness_text(q: int, witness: tuple[int, ...]) -> str:
    if len(witness) > 12:
        groups = []
        for exp in sorted(set(witness)):
            k = witness.count(exp)
            groups.append(f"{k}*{q}^{exp}" if k > 1 else f"{q}^{exp}")
        return "+".join(groups)
    return "+".join(f"{q}^{a}" for a in witness)


def _emit(text: str, out: str | None) -> None:
    """Write text to the --out file, or echo it when there is none."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


class _Main(click.Group):
    """The command group; its invoke is the one handler of package errors."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except NotFoundWithinCap as exc:
            click.echo(f"cap exceeded: {exc.args[0]}", err=True)
            ctx.exit(3)
        except MsumError as exc:  # args[0]: str() would quote an UnknownClaim, a KeyError
            click.echo(f"Error: {exc.args[0]}", err=True)
            ctx.exit(2)


@click.group(cls=_Main)
def main() -> None:
    """Minimal vanishing sums of powers: compute m(q,e), tables and verifications."""


@main.command("m")
@click.argument("q", type=int)
@click.argument("e", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def cmd_m(q: int, e: int, fmt: str) -> None:
    """Compute m(Q, E) with a verified witness."""
    # no witness for q = 1 (mod e), where it has e terms
    congruent_one = e > 1 and q % e == 1
    # m first: a modulus beyond the engines' range fails at once, before the
    # order computation in instance() factors it
    result = engine.m(q, e, with_witness=not congruent_one)
    try:
        inst = instance(q, e)
    except DomainError:  # beyond 2^40 the engine answers moduli that factoring cannot split
        inst = None
    closed = []
    if e == 1:
        closed.append("e=1")
    if congruent_one:
        closed.append("q=1 (mod e)")
    if (e & (e - 1)) == 0 and e > 1:
        closed.append(f"two-power: m = {engine.two_power_m(q, e.bit_length() - 1)}")
    if inst and engine.is_m_two(inst):
        closed.append("m=2 criterion")
    if inst and 1 < q % e and inst.e1 > 1 and e < inst.e1 * inst.e1 + 2 * inst.e1:
        closed.append(f"small-modulus case: m = e1 = {inst.e1}")
    n, e1, bound = (inst.n, inst.e1, engine.ceil_bound(inst)) if inst else (None, None, None)
    if fmt == "json":
        click.echo(json.dumps({
            "q": q, "e": e, "m": result.value,
            "witness": None if congruent_one else list(result.witness),
            "n": n, "e1": e1, "ceil_bound": bound,
            "closed_forms": closed,
        }, sort_keys=True))
        return
    if congruent_one:
        click.echo(f"m({q},{e}): m={result.value} (q=1 mod e case)")
    else:
        click.echo(f"m({q},{e}): m={result.value}, witness {_witness_text(q, result.witness)}")
    if inst:
        click.echo(f"  n={n} e1={e1} ceil(e/n)={bound}")
    else:
        click.echo(f"  n, e1 and ceil(e/n) unknown: {e} could not be factored")
    click.echo("  closed forms: " + ("; ".join(closed) if closed else "none"))


@main.command("table")
@click.option("--e-min", type=int, default=2, show_default=True)
@click.option("--e-max", type=int, required=True)
@click.option("--q-min", type=int, default=1, show_default=True)
@click.option("--q-max", type=int, default=None, help="Default: e-1 per modulus.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Default: stdout.")
def cmd_table(e_min: int, e_max: int, q_min: int, q_max: int | None,
              fmt: str, out: str | None) -> None:
    """Emit the grid of m values (e outer ascending, q inner ascending)."""
    if e_max > engine.DENSE_LIMIT:  # refuse before building any lower table
        raise click.UsageError(f"--e-max {e_max} beyond the table range "
                               f"(e <= {engine.DENSE_LIMIT})")
    if max(e_min, 2) > e_max:  # as verify refuses a domain with no checks
        raise click.UsageError(f"no modulus e >= 2 in --e-min {e_min} .. --e-max {e_max}")
    rows = []
    for e in range(max(e_min, 2), e_max + 1):
        q, mv, n = engine.m_table_for_modulus(e)
        keep = q >= q_min
        if q_max is not None:
            keep &= q <= q_max
        q, mv, n = q[keep], mv[keep], n[keep]
        rows += [{"e": e, "q": qq, "n": nn, "e1": ee, "m": mm} for qq, nn, ee, mm in
                 zip(q.tolist(), n.tolist(), gcd_table(e)[q - 1].tolist(), mv.tolist())]
    if not rows:  # a q range past every e, or whose q all share a factor with e
        q_hi = "e-1" if q_max is None else q_max
        raise click.UsageError(f"no q coprime to e in --q-min {q_min} .. --q-max {q_hi} "
                               f"for e in {max(e_min, 2)} .. {e_max}")
    if fmt == "json":
        text = json.dumps({"rows": rows}, sort_keys=True)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["e", "q", "n", "e1", "m"])
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    _emit(text, out)


@main.command("verify")
@click.argument("claim_id")
@click.option("--e-max", type=int, default=None)
@click.option("--e-min", type=int, default=None)
@click.option("--p-max", type=int, default=None)
@click.option("--q-max", type=int, default=None)
@click.option("--k-cap", type=int, default=None)
@click.option("--k-max", type=int, default=None)
@click.option("--n-max", type=int, default=None)
@click.option("--r", type=int, default=None)
@click.option("--n", "ns", type=int, multiple=True,
              help="Restrict list-driven claims to these n (repeatable).")
@click.option("--jobs", type=int, default=None,
              help="Default: the CPUs this process may run on.")
@click.option("--store", "store_flag", type=click.Path(), default=None,
              envvar="MSUM_STORE", help="Default: $MSUM_STORE, if set.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Default: ./reports/<claim_id>.json")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
def cmd_verify(claim_id: str, jobs: int | None, store_flag: str | None,
               report_path: str | None, fmt: str, **flags) -> None:
    """Run one verification claim and write its report."""
    # run_claim checks the claim id and its parameters; an unset flag is None, or () for --n
    params = {k: v for k, v in flags.items() if v not in (None, ())}
    report = campaign.run_claim(
        claim_id, params,
        jobs=jobs if jobs is not None else campaign.default_jobs(),
        store=store_flag,
    )
    path = report_path or os.path.join("reports", f"{claim_id}.json")
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    except OSError as exc:  # a directory, say, or a path under a file
        raise click.UsageError(f"cannot write report {path}: {exc.strerror}")
    click.echo(report.to_json() if fmt == "json" else report.render_text())
    click.echo(f"report written to {path}", err=True)
    raise SystemExit(0 if report.ok else 1)


@main.command("claims")
def cmd_claims() -> None:
    """List the verifiable claims."""
    for cid, desc in sorted(campaign.list_claims().items()):
        click.echo(f"{cid:12s} {desc}")


@main.command("sequence")
@click.argument("p", type=int)
@click.argument("n", type=int)
@click.argument("k_max", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_sequence(p: int, n: int, k_max: int, fmt: str, out: str | None) -> None:
    """Tower of m values at p, p^2, ..., p^K_MAX for order-n generators."""
    report = tower_sequence(p, n, k_max)
    if fmt == "json":
        text = json.dumps({
            "p": p, "n": n, "k_max": k_max,
            "m_sequence": list(report.m_sequence),
            "levels": [
                {"k": lv.k, "modulus": lv.modulus, "generator": lv.generator,
                 "ord": lv.ord, "m": lv.m, "w": lv.w}
                for lv in report.levels
            ],
            "limit": report.limit, "K_hit": report.K_hit,
            "decreases": list(report.decreases),
        }, sort_keys=True)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "n", "k", "modulus", "generator", "ord", "m", "w", "limit"])
        for lv in report.levels:
            writer.writerow([p, n, lv.k, lv.modulus, lv.generator, lv.ord, lv.m,
                             lv.w, report.limit])
        text = buf.getvalue().rstrip("\n")
    else:
        lines = [f"tower p={p} n={n} k_max={k_max}"]
        lines.append("  k  modulus          generator        ord  m   w")
        for lv in report.levels:
            lines.append(f"  {lv.k:<2d} {lv.modulus:<16d} {lv.generator:<16d} "
                         f"{lv.ord:<4d} {lv.m:<3d} {lv.w}")
        lines.append(f"m sequence: ({', '.join(str(v) for v in report.m_sequence)})")
        hit = f"reached at k={report.K_hit}" if report.K_hit else "not reached"
        lines.append(f"limit {report.limit}; smallest prime divisor of n {hit}")
        if report.decreases:
            lines.append(f"note: m decreased at k in {list(report.decreases)}")
        text = "\n".join(lines)
    _emit(text, out)


@main.command("exceptions")
@click.argument("n", type=int)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_exceptions(n: int, fmt: str, out: str | None) -> None:
    """Exception set for order n: prime powers p^k with m below n/(n-phi(n))."""
    result = corollary13_exceptions(n)
    if fmt == "json":
        text = json.dumps({
            "n": n,
            "threshold": [result.threshold.numerator, result.threshold.denominator],
            "entries": [list(en) for en in result.entries],
            "candidate_pool_size": len(result.candidate_pool),
            "unresolved": [list(u) for u in result.unresolved],
            "complete": result.complete,
        }, sort_keys=True)
    else:
        thr = result.threshold
        lines = [f"exceptions n={n} threshold={thr.numerator}/{thr.denominator}"]
        for p, k, mv in result.entries:
            lines.append(f"  (p={p}, k={k}) m={mv}")
        if not result.entries:
            lines.append("  (none)")
        status = "complete" if result.complete else "candidates, verified members"
        lines.append(f"candidates: {len(result.candidate_pool)}; "
                     f"unresolved: {len(result.unresolved)}; {status}")
        text = "\n".join(lines)
    _emit(text, out)


if __name__ == "__main__":
    main()
