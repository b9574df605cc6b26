"""Run the two evaluation protocols on generated data, end to end.

Nowcasting holds out one site per fold and predicts it from the others;
forecasting holds out every site's final day. Both are run for a plain
spatial kernel and for one that also knows about daily/weekly cycles.

Run: python demos/benchmark_synthetic.py  (about a minute)
"""

import tempfile
from pathlib import Path

from sensorgp import ExperimentConfig, run_matrix, synth_generate
from sensorgp.evaluation import write_comparison_text


def main():
    result = synth_generate(sites=8, days=6, seed=5)
    print(f"generated {len(result.readings)} readings from "
          f"{result.config.sites} sites over {result.config.days} days "
          f"(missing rate {result.config.missing_rate}, "
          f"spike rate {result.config.spike_rate})")

    shared = dict(
        backend="exact", budget=80, learning_rate=0.05, subsample=400,
        repetitions=1, seeds=(1,),
    )
    matrix = [
        ExperimentConfig(name="base", periodic=False, **shared),
        ExperimentConfig(name="periodic", periodic=True, **shared),
        ExperimentConfig(
            name="periodic-cleaned", periodic=True, clean_outliers=True, **shared
        ),
    ]
    reports = run_matrix(result.readings, matrix, protocols=("nowcast", "forecast"))
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "comparison.txt"
        write_comparison_text(reports, table)
        print()
        print(table.read_text(encoding="utf-8"))
    forecast = {r.config.name: r.avg_rmse for r in reports if r.protocol == "forecast"}
    print(f"forecast improvement from periodicity: "
          f"{forecast['base'] - forecast['periodic']:+.2f} rmse")
    print(f"further improvement from outlier removal: "
          f"{forecast['periodic'] - forecast['periodic-cleaned']:+.2f} rmse")


if __name__ == "__main__":
    main()
