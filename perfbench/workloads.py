"""The fixed workload ladder.

Each workload is a list of CLI commands.  A pass runs every command once, in an
order shuffled by the workload seed; the inputs themselves never change.  The
configs live in ``perfbench/configs``.

Why each workload exists, and the layer it is meant to stress:

* ``hasse-ladder``: ``hasse`` from the C3 golden flag datum up to rank 5 (A4
  Borel with 120 strata, A5, C5 with I={1,2,3,4}).  The ``weyl`` and
  ``strata`` layers do nearly all the work; ``cones`` and ``sections`` none.
* ``purity-cones``: ``purity`` on A4 I={2}, the C3 golden flag datum and the
  A3 and B3 Borel types.  Fourier-Motzkin in ``cones`` dominates and
  ``strata`` does nothing.  The A4 Borel uniform cone is left out on purpose:
  Fourier-Motzkin does not finish it in ten minutes.
* ``queries``: single-stratum questions on a cold process, dominated by
  set-up and ``sections``.  The C5 ``n-alpha`` is almost all
  ``WeylGroup.elements()`` (reached through ``wg.order()``).
* ``scan-sweep``: one ``scan`` over all 8 C3 types and primes {2,3,5,7}.  It
  is the only workload that rebuilds and queries the same group over and
  over, so a change trading cold set-up against reuse gains here and costs
  ``queries``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    id: str         # key into expected.json
    argv: tuple     # arguments to zipstrata.cli.main; --config names a file in configs/

    def config(self):
        """The config file name the command reads, or None."""
        return self.argv[self.argv.index("--config") + 1] if "--config" in self.argv else None

    def resolved_argv(self, config_dir):
        """argv with the config file name replaced by its path."""
        name = self.config()
        return [str(config_dir / a) if a == name else a for a in self.argv]


def _cmd(cid, command, config=None, *extra):
    argv = (command,) + (("--config", config + ".json") if config else ()) + extra
    return Command(cid, argv)


WORKLOADS = {
    "hasse-ladder": (
        _cmd("hasse/c3-flag/I", "hasse", "c3-flag", "--side", "I"),
        _cmd("hasse/c3-flag/J", "hasse", "c3-flag", "--side", "J"),
        _cmd("hasse/a4-borel", "hasse", "a4-borel"),
        _cmd("hasse/a5-i1245", "hasse", "a5-i1245"),
        _cmd("hasse/c5-i1234", "hasse", "c5-i1234"),
    ),
    "purity-cones": (
        _cmd("purity/a4-i2", "purity", "a4-i2"),
        _cmd("purity/c3-flag", "purity", "c3-flag"),
        _cmd("purity/a3-borel", "purity", "a3-borel"),
        _cmd("purity/b3-borel", "purity", "b3-borel"),
    ),
    "queries": (
        _cmd("describe/c5-i1234", "describe", "c5-i1234"),
        _cmd("char-test/c5-i1234", "char-test", "c5-i1234"),
        _cmd("n-alpha/c5-i1234", "n-alpha", "c5-i1234"),
        _cmd("cone/c3-golden", "cone", "c3-golden"),
        _cmd("purity/c4-i4", "purity", "c4-i4"),
        _cmd("golden", "golden"),
    ),
    "scan-sweep": (
        _cmd("scan/c3", "scan", "c3-scan", "--workers", "1"),
    ),
}
