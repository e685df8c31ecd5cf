package repro.sparkmega

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.Moves

/** The Spark micro-batch instantiation: result correctness against DuckDB,
  * migration invariance across strategies, and real placement checks via
  * spark_partition_id.
  */
class SparkMegaphoneSpec extends SparkSpec {
  import spark.implicits._

  private val Bins    = 64
  private val Workers = 8

  private def batches(n: Int, rowsPer: Int, keys: Int, seed: Long = 9L): Seq[DataFrame] =
    (0 until n).map { i =>
      SynthData
        .uniformKeys(spark, rowsPer.toLong, keys.toLong, seed + i)
        .select($"k" as "key", lit(1L) as "value")
    }

  test("counts equal DuckDB aggregation over all batches (no migration)") {
    val bs  = batches(4, 2000, 500)
    val eng = new SparkMegaphone(spark, Bins, Workers)
    bs.foreach(eng.processBatch(_))
    val all = bs.reduce(_ union _)
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> all,
    )
    eng.close()
  }

  test("zipf-skewed keys aggregate correctly too") {
    val b = SynthData.zipfKeys(spark, 5000, 200).select($"k" as "key", lit(2L) as "value")
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(b)
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
      "input" -> b,
    )
    eng.close()
  }

  test("TPC-H-lite: streamed lineitem quantities per part match DuckDB") {
    val li = SynthData.lineitem(spark, sf = 0.001)
    val bs = Seq($"l_orderkey" < 500, $"l_orderkey" >= 500 && $"l_orderkey" < 1000, $"l_orderkey" >= 1000)
      .map(p => li.filter(p).select($"l_partkey" as "key", $"l_quantity".cast("long") as "value"))
    val eng = new SparkMegaphone(spark, Bins, Workers)
    bs.foreach(eng.processBatch(_))
    Oracle.assertEquivalent(
      eng.state.select($"key", $"cnt"),
      // floor(): DuckDB rounds double→bigint casts, Spark truncates.
      "SELECT CAST(l_partkey AS BIGINT) AS key, SUM(CAST(floor(CAST(l_quantity AS DOUBLE)) AS BIGINT)) AS cnt " +
        "FROM lineitem GROUP BY l_partkey",
      "lineitem" -> li,
    )
    eng.close()
  }

  for (strategy <- Seq("all-at-once", "fluid", "batched")) {
    test(s"final state is invariant under $strategy migration") {
      val bs    = batches(6, 1500, 400)
      val moves = Moves.imbalance(Bins, Workers)
      val sched = SparkMegaphone.schedule(strategy, moves, startBatch = 2, batchesAvailable = 3)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      bs.zipWithIndex.foreach { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
      Oracle.assertEquivalent(
        eng.state.select($"key", $"cnt"),
        "SELECT CAST(key AS BIGINT) AS key, SUM(CAST(value AS BIGINT)) AS cnt FROM input GROUP BY key",
        "input" -> bs.reduce(_ union _),
      )
      // Routing reflects the schedule's final assignment.
      moves.foreach { case (b, w) => assert(eng.currentOwner(b) == w) }
      eng.close()
    }
  }

  test("schedules partition the moves without loss or duplication") {
    val moves = Moves.imbalance(Bins, Workers)
    for (s <- Seq("all-at-once", "fluid", "batched")) {
      val sched = SparkMegaphone.schedule(s, moves, 2, 4)
      assert(sched.values.flatten.toSet == moves.toSet)
      assert(sched.values.map(_.size).sum == moves.size)
    }
    assert(SparkMegaphone.schedule("all-at-once", moves, 2, 4).size == 1)
    assert(SparkMegaphone.schedule("fluid", moves, 2, 4).size >= 4)
  }

  test("placement: every bin's rows live in the partition of its worker") {
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(batches(1, 3000, 600).head)
    val placed = eng.state
      .withColumn("pid", spark_partition_id())
      .select($"bin", $"worker", $"pid")
      .distinct()
      .collect()
    // One partition per bin, and the partition is a pure function of worker.
    val byBin = placed.groupBy(_.getInt(0))
    byBin.values.foreach(rows => assert(rows.length == 1, "a bin must live in exactly one partition"))
    val byWorker = placed.groupBy(_.getInt(1)).view.mapValues(_.map(_.getInt(2)).toSet)
    byWorker.values.foreach(pids => assert(pids.size == 1, "a worker maps to one partition"))
    eng.close()
  }

  test("migration moves exactly the scheduled bins to their new workers") {
    val eng = new SparkMegaphone(spark, Bins, Workers)
    eng.processBatch(batches(1, 3000, 600).head)
    val before = eng.state.select($"bin", $"worker").distinct().as[(Int, Int)].collect().toMap
    val moves  = Moves.imbalance(Bins, Workers)
    val res    = eng.processBatch(batches(1, 100, 600).head, moves)
    assert(res.movedRows > 0)
    val after = eng.state.select($"bin", $"worker").distinct().as[(Int, Int)].collect().toMap
    moves.foreach { case (b, w) => assert(after(b) == w && before(b) != w) }
    (0 until Bins).filterNot(moves.map(_._1).toSet).foreach(b => assert(after.get(b).forall(_ == before(b))))
    eng.close()
  }

  test("fluid schedule spreads moved rows over batches; all-at-once concentrates them") {
    val bs    = batches(6, 1000, 300)
    val moves = Moves.imbalance(Bins, Workers)
    def movedPerBatch(strategy: String): Seq[Long] = {
      val sched = SparkMegaphone.schedule(strategy, moves, 1, 4)
      val eng   = new SparkMegaphone(spark, Bins, Workers)
      val res   = bs.zipWithIndex.map { case (b, i) => eng.processBatch(b, sched.getOrElse(i, Nil)) }
      eng.close()
      res.map(_.movedRows)
    }
    val allAtOnce = movedPerBatch("all-at-once")
    val fluid     = movedPerBatch("fluid")
    assert(allAtOnce.count(_ > 0) == 1)
    assert(fluid.count(_ > 0) >= 2)
    assert(fluid.max < allAtOnce.max, "fluid's per-batch migration work must be smaller")
  }

  test("empty batches and repeated migrations are safe") {
    val eng   = new SparkMegaphone(spark, Bins, Workers)
    val empty = Seq.empty[(Long, Long)].toDF("key", "value")
    eng.processBatch(empty)
    val moves = Moves.imbalance(Bins, Workers)
    eng.processBatch(empty, moves)
    eng.processBatch(empty, moves.map { case (b, _) => (b, b % Workers) }) // move back
    moves.foreach { case (b, _) => assert(eng.currentOwner(b) == b % Workers) }
    eng.close()
  }
}
