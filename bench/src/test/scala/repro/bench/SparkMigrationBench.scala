package repro.bench

import repro.SparkSpec
import repro.exp.SparkMigrationExp

/** The Spark micro-batch instantiation under migration: measured per-batch
  * wall times show the all-at-once spike vs. fluid/batched smoothing on real
  * Spark shuffles (the repro target's Structured-Streaming-style table).
  */
class SparkMigrationBench extends SparkSpec {

  private lazy val runs = SparkMigrationExp.run(spark)

  test("Spark: print per-batch wall times per strategy") {
    println(s"\n=== Spark micro-batch Megaphone: per-batch wall time [ms] (moved state rows), migration from batch ${SparkMigrationExp.MigrateAt} ===")
    println(SparkMigrationExp.render(runs))
    assert(runs.size == 3)
  }

  test("Spark: all-at-once concentrates migration work in one batch") {
    val a = runs.find(_.strategy == "all-at-once").get
    assert(a.moved.count(_ > 0) == 1)
    val f = runs.find(_.strategy == "fluid").get
    assert(f.moved.count(_ > 0) >= 3)
  }

  test("Spark: fluid moves fewer rows per batch than all-at-once's single batch") {
    val a = runs.find(_.strategy == "all-at-once").get
    val f = runs.find(_.strategy == "fluid").get
    assert(f.moved.max < a.moved.max)
    // State grows between batches, so fluid's total moved rows is at least
    // all-at-once's snapshot (same bins, observed later) — never less than
    // half on this workload.
    assert(f.moved.sum >= a.moved.sum / 2, s"fluid total ${f.moved.sum} vs all-at-once ${a.moved.sum}")
  }

  test("Spark: the all-at-once migration batch pays the largest migration time") {
    val a = runs.find(_.strategy == "all-at-once").get
    val f = runs.find(_.strategy == "fluid").get
    assert(a.migMs.max >= f.migMs.max,
      s"all-at-once per-batch migration ${a.migMs.max}ms vs fluid ${f.migMs.max}ms")
  }
}
