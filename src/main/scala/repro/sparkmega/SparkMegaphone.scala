package repro.sparkmega

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Moves
import scala.collection.mutable

/** Megaphone's migration mechanism instantiated on Spark DataFrames as a
  * micro-batch streaming engine (the repro target's "Structured Streaming
  * state migration mechanism that repartitions keyed state across executors
  * in configurable granularity").
  *
  * Keyed operator state lives in a driver-managed DataFrame
  * `(bin, key, cnt, worker)`; the configuration function is a bin→worker
  * routing table. A migration is expressed — exactly as in §3.3 — as a set
  * of `(bin, worker)` updates taking effect at a batch boundary (the logical
  * timestamp), and its cost is the Spark shuffle of precisely the moving
  * bins' rows: all-at-once pays it in one batch, fluid/batched spread it.
  * Placement is observable via `spark_partition_id` after repartitioning on
  * the worker column (see SparkMegaphoneSpec).
  *
  * OSS Structured Streaming pins its state store to fixed shuffle
  * partitions; this driver-managed formulation exposes the placement knob
  * Megaphone needs while keeping every data-plane operation a plain
  * DataFrame transformation (aggregation + full-outer join on (bin, key)).
  */
final class SparkMegaphone(
    val spark: SparkSession,
    val numBins: Int,
    val numWorkers: Int,
) {
  import spark.implicits._

  /** configuration: bin → worker (latest ingested update wins). */
  private val routing: Array[Int] = Array.tabulate(numBins)(_ % numWorkers)

  def currentOwner(bin: Int): Int = routing(bin)

  private var stateDf: DataFrame = {
    val empty = spark.createDataFrame(
      spark.sparkContext.emptyRDD[org.apache.spark.sql.Row],
      org.apache.spark.sql.types.StructType.fromDDL("bin INT, key BIGINT, cnt BIGINT, worker INT"),
    )
    empty.repartition(numWorkers, col("worker")).cache()
  }

  /** Current state (bin, key, cnt, worker), partitioned by worker. */
  def state: DataFrame = stateDf

  final case class BatchResult(
      batchMillis: Long,
      migrateMillis: Long,
      movedRows: Long,
      updatedRows: Long,
  )

  private def routeExpr(snapshot: Array[Int]) = {
    val routeUdf = udf((b: Int) => snapshot(b))
    routeUdf(col("bin"))
  }

  /** Assign bins by the most significant bits idea of §4.2 — here a plain
    * modulo on a mixed hash, which serves the same purpose for Long keys.
    * (A local copy of the bin count keeps `this` out of the task closure.)
    */
  def binOf = {
    val nb = numBins
    udf((k: Long) => (((k * 2654435761L) % nb + nb) % nb).toInt)
  }

  /** One micro-batch: apply configuration updates (migrating exactly the
    * moved bins' state via a shuffle), then fold the batch into per-key
    * counts. `batch` has columns (key: Long, value: Long).
    */
  def processBatch(batch: DataFrame, updates: Seq[(Int, Int)] = Nil): BatchResult = {
    val tAll = System.nanoTime()

    // ---- migration: reroute the moved bins and shuffle exactly their rows.
    var migrateMillis = 0L
    var movedRows     = 0L
    if (updates.nonEmpty) {
      val t0 = System.nanoTime()
      updates.foreach { case (b, w) => routing(b) = w }
      val snapshot  = routing.clone()
      val movedBins = updates.map(_._1).toSet
      val isMoved   = udf((b: Int) => movedBins.contains(b))
      val moving = stateDf
        .filter(isMoved(col("bin")))
        .withColumn("worker", routeExpr(snapshot))
        .repartition(numWorkers, col("worker"))
        .cache()
      movedRows = moving.count() // forces the migration shuffle now
      val staying = stateDf.filter(!isMoved(col("bin")))
      val old     = stateDf
      // localCheckpoint truncates lineage: iterated micro-batches would
      // otherwise accumulate an ever-growing logical plan.
      stateDf = staying.union(moving).repartition(numWorkers, col("worker")).localCheckpoint(true)
      old.unpersist()
      moving.unpersist()
      migrateMillis = (System.nanoTime() - t0) / 1_000_000L
    }

    // ---- state update: fold the batch into per-key counts.
    val snapshot = routing.clone()
    val agg = batch
      .withColumn("bin", binOf(col("key")))
      .groupBy($"bin", $"key")
      .agg(sum($"value") as "delta")
    val old = stateDf
    val joined = old
      .drop("worker")
      .join(agg, Seq("bin", "key"), "full_outer")
      .select(
        $"bin",
        $"key",
        (coalesce($"cnt", lit(0L)) + coalesce($"delta", lit(0L))) as "cnt",
      )
      .withColumn("worker", routeExpr(snapshot))
    stateDf = joined.repartition(numWorkers, col("worker")).localCheckpoint(true)
    val updated = stateDf.count()
    old.unpersist()

    BatchResult((System.nanoTime() - tAll) / 1_000_000L, migrateMillis, movedRows, updated)
  }

  def close(): Unit = stateDf.unpersist()
}

object SparkMegaphone {

  /** Migration schedules at micro-batch granularity: which updates take
    * effect at which batch index — the §3.3 strategies with the batch
    * boundary as the logical timestamp.
    */
  def schedule(
      strategy: String,
      moves: Seq[(Int, Int)],
      startBatch: Int,
      batchesAvailable: Int,
  ): Map[Int, Seq[(Int, Int)]] = strategy match {
    case "all-at-once" => Map(startBatch -> moves)
    case "fluid" =>
      // One slice per batch until the moves run out.
      val per = math.max(1, math.ceil(moves.size.toDouble / batchesAvailable).toInt)
      moves.grouped(per).zipWithIndex.map { case (g, i) => (startBatch + i, g) }.toMap
    case "batched" =>
      val per = math.max(1, math.ceil(moves.size.toDouble / math.min(4, batchesAvailable)).toInt)
      moves.grouped(per).zipWithIndex.map { case (g, i) => (startBatch + i, g) }.toMap
    case other => throw new IllegalArgumentException(s"unknown strategy $other")
  }

  /** The canonical §5 move set; same home placement `bin % workers`. */
  def imbalance(bins: Int, workers: Int): Seq[(Int, Int)] = Moves.imbalance(bins, workers)
}
