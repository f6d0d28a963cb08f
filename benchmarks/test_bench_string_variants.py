"""String-element variants of the microbenchmarks.

The paper's methodology: "Our experiments use multiple versions of each
benchmark and vary the data type between integers and strings ... Data
structures with integer elements pack less data (smaller than a cache
line) per element, whereas those with strings require multiple cache
lines per element."  String elements mean more logged words per
transaction, so the logging designs separate further — and the headline
shapes must continue to hold.
"""

from repro.core.design import FWB, REDO_CLWB, UNDO_CLWB
from repro.harness.experiments import figure6_throughput, summarize_fwb_gain
from repro.harness.sweep import run_micro_sweep

STRING_BENCHMARKS = ("hash", "sps", "rbtree")


def test_bench_string_variants(benchmark):
    def sweep_pair():
        string_sweep = run_micro_sweep(
            benchmarks=STRING_BENCHMARKS,
            threads=(1,),
            txns_per_thread=200,
            value_kind="string",
        )
        int_sweep = run_micro_sweep(
            benchmarks=STRING_BENCHMARKS,
            threads=(1,),
            txns_per_thread=200,
            value_kind="int",
        )
        return string_sweep, int_sweep

    string_sweep, int_sweep = benchmark.pedantic(sweep_pair, rounds=1, iterations=1)
    print()
    result = figure6_throughput(string_sweep)
    print(result.rendered.replace("Figure 6", "Figure 6 (string elements)"))

    # Shape checks hold for string elements too.
    for (bench, threads), cell in result.data.items():
        assert cell[FWB] > max(
            cell[REDO_CLWB], cell[UNDO_CLWB]
        ), (bench, threads)
    gain = summarize_fwb_gain(string_sweep, 1)
    print(f"fwb gain over best software-clwb (string elements): {gain:.2f}x")
    assert gain > 1.2
    benchmark.extra_info["fwb_gain_string"] = round(gain, 3)

    # Strings log more words per transaction than ints (multi-line
    # elements), for every benchmark.
    for bench in STRING_BENCHMARKS:
        string_stats = string_sweep.stats(bench, 1, FWB)
        int_stats = int_sweep.stats(bench, 1, FWB)
        string_rate = string_stats.log_records / string_stats.transactions_committed
        int_rate = int_stats.log_records / int_stats.transactions_committed
        print(f"{bench}: {int_rate:.1f} records/txn (int) vs "
              f"{string_rate:.1f} (string)")
        # Trees are dominated by structural pointer writes, so their
        # element-size sensitivity is the smallest.
        assert string_rate > 1.2 * int_rate, bench
