"""The benchmark's workloads and the seeded inputs they add to synth's.

Every workload keeps the paper's method settings (t = 12, ne = 7,
eta = 1e-3, 68 quarters from 2000Q1, first prediction 2004Q3) and
changes only what the comment on it says. Sizes are cut from the
paper-shaped study so that one run, set-up included, fits in about a
minute; see README.md for the reasoning and the layer -> end-to-end ->
workload map.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from datetime import date, timedelta

SECTOR = "Commercial Services"


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # scopes, as the CLI names them; synth always writes every sector
    scopes: tuple
    noisy_deals: bool = False

    def cli_config(self, seed: int) -> dict:
        return {**self.config, "seed": seed, "scopes": list(self.scopes)}


WORKLOADS = {
    w.name: w
    for w in (
        # Market alone, 50 windows, every fit run to the cap as at the
        # paper's defaults; one sector at the default deal intensity feeds
        # it. The benchmark adds follow-on rounds and malformed rows to the
        # deal file, which must leave the features unchanged. A sector
        # scope would add as much aggregation as the fits take, and
        # aggregation is the layer whose time drifts most with the host.
        Workload(
            name="walkforward",
            config={"n_sectors": 1, "tolerance": 1e-6, "max_iter": 1500},
            scopes=("Market",),
            noisy_deals=True,
        ),
        # synth's inputs for walkforward, scoped to Market and the first
        # sector, 100 windows, with a loose tolerance: about half the fits
        # stop early and the rest at the cap, so a kernel that runs every
        # window as long as the slowest one loses here. A sector needs the
        # default deal intensity so that no quarter goes without deals
        # (none on seeds 0-99); a skipped window would make the fit count
        # vary by seed.
        Workload(
            name="quicklook",
            config={"n_sectors": 1, "tolerance": 0.5, "max_iter": 1000},
            scopes=("Market", SECTOR),
        ),
    )
}

_BAD_ROWS = (
    ("first_investment_date", "2004-13-45"),
    ("first_investment_date", "sometime in 2003"),
    ("sector", "Crypto Assets"),
    ("investor_aum", "lots"),
)


def add_followons_and_bad_rows(clean_csv: str, seed: int) -> str:
    """synth's deals.csv plus follow-on rounds and malformed rows, shuffled.

    About a third of the companies get one to three later rounds, each
    strictly after the company's first, so first_deals must drop them;
    about 1% extra rows carry a bad date, an unknown sector or an
    unparseable AUM, so parse_deals must reject them. Neither changes the
    first deals, so features and z-scores must come out byte-identical.
    """
    rng = random.Random(seed)
    reader = csv.reader(io.StringIO(clean_csv))
    header = next(reader)
    col = {name: k for k, name in enumerate(header)}
    rows = list(reader)
    extra = []
    for row in rows:
        if rng.random() >= 1 / 3:
            continue
        first = date.fromisoformat(row[col["first_investment_date"]])
        when = first
        for _ in range(rng.randint(1, 3)):
            when += timedelta(days=rng.randint(30, 400))
            follow = list(row)
            follow[col["first_investment_date"]] = (
                when.isoformat() if rng.random() < 0.7 else when.strftime("%b-%d-%y")
            )
            follow[col["investor"]] = f"Fund {rng.randint(0, 30):02d}"
            follow[col["investor_aum"]] = rng.choice(
                (f"{rng.uniform(0.5, 20.0):.3f}", "AUM<2", "2<AUM<10", "AUM>10", "N/A")
            )
            follow[col["investor_performance"]] = rng.choice(
                ("1.0", "2.5", "4.0", "Top two quartiles", "Bottom two quartiles", "N/A")
            )
            extra.append(follow)
    for k in range(max(1, len(rows) // 100)):
        bad = list(rng.choice(rows))
        bad[col["company_id"]] = f"BAD-{k:05d}"
        column, value = rng.choice(_BAD_ROWS)
        bad[col[column]] = value
        extra.append(bad)
    out_rows = rows + extra
    rng.shuffle(out_rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(out_rows)
    return buffer.getvalue()
