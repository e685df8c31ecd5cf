package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.{Oracle, SynthData}
import repro.sparkmega.SparkMegaphone
import scala.collection.mutable

/** `spark-wordcount`: `SparkMegaphone` micro-batch word count on local Spark,
  * in a closed loop (each batch starts when the previous one ends).
  *
  * A run is a warm-up round and then measured rounds until the time is up.
  * Each round is steady batches, the imbalance migration spread over
  * batches, steady batches, and the rebalance migration. The inputs are
  * `distinctBatches` seeded uniform batches made in set-up and fed in turn,
  * so state stops growing once every key was seen and each round does the
  * same work however many rounds a run fits.
  */
final case class SparkWordcount(
    bins: Int,
    workers: Int,
    rowsPerBatch: Long,
    keys: Long,
    distinctBatches: Int,
    steadyBatches: Int,
    migrationBatches: Int,
    minRounds: Int,
) {
  def name = "spark-wordcount"

  /** Local Spark threads: at most 4, fewer on smaller hosts. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def fingerprint(seed: Long): String =
    s"workload=$name bins=$bins workers=$workers cores=$cores rowsPerBatch=$rowsPerBatch keys=$keys " +
      s"distinctBatches=$distinctBatches steady=$steadyBatches migration=batched/$migrationBatches seed=$seed"

  private def session(dir: java.nio.file.Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      // Bound the job history the status store keeps, so the live heap does
      // not depend on how many batches a run fits.
      .config("spark.ui.retainedJobs", 20)
      .config("spark.ui.retainedStages", 20)
      .config("spark.ui.retainedTasks", 200)
      .config("spark.sql.ui.retainedExecutions", 5)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", dir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", dir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private final case class Setup(spark: SparkSession, eng: SparkMegaphone, inputs: IndexedSeq[DataFrame])

  private def setUp(ctx: RunContext): Setup = {
    val spark = session(ctx.workDir)
    import spark.implicits._
    val eng = new SparkMegaphone(spark, bins, workers)
    val inputs = (0 until distinctBatches).map { i =>
      SynthData.uniformKeys(spark, rowsPerBatch, keys, seed = ctx.seed * 131L + i)
        .select($"k" as "key", lit(1L) as "value")
        .cache()
    }
    inputs.foreach(_.count())
    Setup(spark, eng, inputs)
  }

  /** One micro-batch as the loop saw it. */
  private final case class B(kind: String, ns: Long, migrateMs: Long, moved: Long, stateRows: Long)

  def run(ctx: RunContext): (Gates, Metrics) = {
    val gates = new Gates
    ctx.info(s"fingerprint ${Digest.of(fingerprint(ctx.seed))} ${fingerprint(ctx.seed)}")

    val tSetup                    = System.nanoTime()
    val Setup(spark, eng, inputs) = setUp(ctx)
    val setupNs                   = System.nanoTime() - tSetup
    ctx.info(f"setup_ms ${setupNs / 1e6}%.1f boot_ms ${ctx.bootNs / 1e6}%.1f")

    val fed   = new Array[Long](distinctBatches)
    var fedAt = 0
    def batch(kind: String, updates: Seq[(Int, Int)]): B = {
      val in = fedAt % distinctBatches
      fed(in) += 1
      fedAt += 1
      val t0 = System.nanoTime()
      val r  = ctx.tracer.span("sparkmega.processBatch")(eng.processBatch(inputs(in), updates))
      B(kind, System.nanoTime() - t0, r.migrateMillis, r.movedRows, r.updatedRows)
    }
    val out  = SparkMegaphone.imbalance(bins, workers)
    val back = out.map { case (b, _) => (b, b % workers) }
    def round(): (Seq[B], Long) = {
      val t0 = System.nanoTime()
      val bs = mutable.ArrayBuffer.empty[B]
      def migrate(kind: String, moves: Seq[(Int, Int)]): Unit = {
        val sched = SparkMegaphone.schedule("batched", moves, 0, migrationBatches)
        (0 until sched.keys.max + 1).foreach(i => bs += batch(kind, sched.getOrElse(i, Nil)))
      }
      (0 until steadyBatches).foreach(_ => bs += batch("steady", Nil))
      migrate("imbalance", out)
      (0 until steadyBatches).foreach(_ => bs += batch("steady", Nil))
      migrate("rebalance", back)
      (bs.toSeq, System.nanoTime() - t0)
    }

    ctx.tracer.span("warm-up")(round())
    val j0     = Jvm.snap()
    var start  = System.nanoTime()
    val rounds = mutable.ArrayBuffer.empty[(Seq[B], Long)]
    def roundNs = rounds.map(_._2).sum / rounds.size
    // A traced run traces every other round; the rest measure the overhead.
    val tracedRound = mutable.ArrayBuffer.empty[Boolean]
    var heapMiB     = 0.0
    var heapBatches = 0
    while (rounds.size < minRounds || System.nanoTime() - start + roundNs <= ctx.seconds * 1_000_000_000L) {
      ctx.tracer.enabled = ctx.trace && rounds.size % 2 == 1
      tracedRound += ctx.tracer.enabled
      rounds += ctx.tracer.span("round")(round())
      // The engine's heap grows with every batch, so it is read after a fixed
      // number of rounds (not at the end, which a faster host reaches later);
      // the pause does not count against the measuring time.
      if (rounds.size == minRounds && !ctx.trace) {
        val t0 = System.nanoTime()
        heapMiB = Jvm.liveHeapMiB(eng)
        heapBatches = fedAt
        start += System.nanoTime() - t0
      }
    }
    ctx.tracer.enabled = ctx.trace
    val measuredNs = System.nanoTime() - start
    val j1         = Jvm.snap()

    val all       = rounds.flatMap(_._1).toSeq
    val rowsRound = rounds.head._1.size * rowsPerBatch
    val ms        = (b: B) => b.ns / 1e6
    val migBs     = all.filter(_.kind != "steady")
    rounds.zipWithIndex.foreach { case ((bs, ns), i) =>
      ctx.info(s"round $i wall_s=${ns / 1e9} batch_ms=${bs.map(b => f"${b.kind.head}${ms(b)}%.0f").mkString(",")}")
    }

    if (ctx.trace) {
      ctx.layer("sparkmega.migrate_ms", Stats.median(migBs.map(_.migrateMs.toDouble).toSeq))
      ctx.layer("sparkmega.moved_rows", Stats.median(migBs.map(_.moved.toDouble).toSeq))
      ctx.layer("sparkmega.moved_share", migBs.map(_.moved).sum.toDouble / math.max(1L, migBs.map(_.stateRows).sum))
      ctx.layer("sparkmega.fold_ms", Stats.median(all.map(b => ms(b) - b.migrateMs).toSeq))
      ctx.layer("sparkmega.state_rows", Stats.median(all.map(_.stateRows.toDouble).toSeq))
      ctx.layer("jvm.gc_s", (j1.gcMs - j0.gcMs) / 1e3)
      ctx.layer("jvm.gc_count", (j1.gcCount - j0.gcCount).toDouble)
      ctx.layer("jvm.alloc_mib", (j1.allocBytes - j0.allocBytes) / SimMeter.MiB)
      ctx.layer("jvm.alloc_bytes_per_event", (j1.allocBytes - j0.allocBytes).toDouble / (all.size * rowsPerBatch))
      val rate = (traced: Boolean) =>
        Stats.median(rounds.zip(tracedRound).collect { case ((_, ns), t) if t == traced => rowsRound / (ns / 1e9) }.toSeq)
      if (tracedRound.contains(true)) ctx.layer("trace.overhead_share", 1.0 - rate(true) / rate(false))
    }

    val m = new Metrics
    if (!ctx.trace) {
      // A row's latency is the wall time of the batch that folds it in: the
      // closed loop admits a batch's rows when the batch starts.
      // Process launch to the first batch: the cold set-up, once.
      m("setup_s") = (ctx.bootNs + setupNs) / 1e9 -> "s"
      m("events_per_s") = Stats.median(rounds.map { case (_, ns) => rowsRound / (ns / 1e9) }.toSeq) -> "1/s"
      m("live_heap_mib") = heapMiB -> "MiB"
      val endMiB = Jvm.liveHeapMiB(eng)
      ctx.info(f"live_heap after $heapBatches batches ${heapMiB}%.2f MiB, after $fedAt batches $endMiB%.2f MiB")
      m("latency_p50_ms") = Stats.median(all.map(ms).toSeq) -> "ms"
      // Within a round the slowest batch holds the p99.99 row.
      m("latency_p9999_ms") = Stats.median(rounds.map(_._1.map(ms).max).toSeq) -> "ms"
      m("steady_max_latency_ms") = Stats.median(rounds.map(_._1.filter(_.kind == "steady").map(ms).max).toSeq) -> "ms"
      m("mig_max_latency_ms") = Stats.median(rounds.map(_._1.filter(_.kind == "rebalance").map(ms).max).toSeq) -> "ms"
      m("mig_duration_s") = Stats.median(rounds.map(_._1.filter(_.kind == "rebalance").map(_.ns / 1e9).sum).toSeq) -> "s"
      ctx.info(f"samples rounds=${rounds.size} batches=${all.size} rows_per_batch=$rowsPerBatch " +
        f"batch_p50_ms=${Stats.median(all.map(ms).toSeq)}%.2f mig_batch_ms=${Stats.median(migBs.map(ms).toSeq)}%.2f " +
        f"migration_batches=${migBs.size} measured_s=${measuredNs / 1e9}%.2f")
    }

    // Gate: the final state equals DuckDB over the union of every batch fed.
    val state =
      if (ctx.corrupt != "state") eng.state
      else {
        val key = eng.state.select(min("key")).first().getLong(0)
        eng.state.withColumn("cnt", when(col("key") === key, col("cnt") + 1).otherwise(col("cnt")))
      }
    val stateRows = eng.state.count()
    val unionInputs = inputs.zipWithIndex.map { case (df, i) => df.withColumn("batch", lit(i)) }.reduce(_ union _)
    import spark.implicits._
    val reps = fed.toSeq.zipWithIndex.map { case (n, i) => (i, n) }.toDF("batch", "reps")
    val tOracle = System.nanoTime()
    val verdict = scala.util.Try(ctx.tracer.span("repro.Oracle")(Oracle.assertEquivalent(
      state.select(col("key"), col("cnt")),
      "SELECT CAST(i.key AS BIGINT) AS key, SUM(CAST(i.value AS BIGINT) * CAST(r.reps AS BIGINT)) AS cnt " +
        "FROM input i JOIN reps r ON i.batch = r.batch GROUP BY i.key HAVING SUM(CAST(r.reps AS BIGINT)) > 0",
      "input" -> unionInputs, "reps" -> reps)))
    ctx.info(f"oracle_s ${(System.nanoTime() - tOracle) / 1e9}%.1f input_rows=${distinctBatches * rowsPerBatch}")
    verdict.failed.foreach(e => ctx.info(s"oracle: ${e.getMessage.linesIterator.take(3).mkString(" | ")}"))
    gates.check(s"final state ($stateRows rows) equals DuckDB over all ${fedAt} batches", stateRows max 1L,
      if (verdict.isSuccess) 0L else (stateRows max 1L))

    inputs.foreach(_.unpersist())
    eng.close()
    spark.stop()
    (gates, m)
  }
}

object SparkWordcount {
  def full: SparkWordcount = SparkWordcount(bins = 256, workers = 8, rowsPerBatch = 10_000L, keys = 20_000L,
    distinctBatches = 2, steadyBatches = 2, migrationBatches = 4, minRounds = 3)

  def tiny: SparkWordcount = SparkWordcount(bins = 32, workers = 4, rowsPerBatch = 2_000L, keys = 1_000L,
    distinctBatches = 3, steadyBatches = 1, migrationBatches = 2, minRounds = 1)
}
