package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.core.Moves
import repro.harness.TextTable
import repro.sparkmega.SparkMegaphone

/** The Spark micro-batch instantiation under migration: per-batch wall times
  * of a word count over 12 cached batches while the canonical imbalance
  * migration runs from batch 5, all-at-once vs batched vs fluid.
  */
object SparkMigrationExp {
  val Bins       = 256
  val Workers    = 8
  val NumBatches = 12
  val MigrateAt  = 5

  final case class Run(strategy: String, batchMs: Seq[Long], migMs: Seq[Long], moved: Seq[Long])

  def run(spark: SparkSession): Seq[Run] = {
    import spark.implicits._
    val batches = (0 until NumBatches).map { i =>
      SynthData
        .uniformKeys(spark, 200_000L, 500_000L, seed = 31L + i)
        .select($"k" as "key", lit(1L) as "value")
        .cache()
    }
    batches.foreach(_.count()) // materialize inputs outside the timing
    val moves = Moves.imbalance(Bins, Workers)
    val runs = Seq("all-at-once", "batched", "fluid").map { strategy =>
      val sched = SparkMegaphone.schedule(strategy, moves, MigrateAt, NumBatches - MigrateAt - 1)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      val res   = batches.zipWithIndex.map { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
      eng.close()
      Run(strategy, res.map(_.batchMillis), res.map(_.migrateMillis), res.map(_.movedRows))
    }
    batches.foreach(_.unpersist())
    runs
  }

  /** Per-batch wall time [ms] with the moved state rows in parentheses. */
  def render(runs: Seq[Run]): String =
    TextTable.render(
      "batch" +: (0 until NumBatches).map(_.toString),
      runs.map(r => r.strategy +: r.batchMs.zip(r.moved).map { case (ms, n) => s"$ms($n)" }),
    )
}
