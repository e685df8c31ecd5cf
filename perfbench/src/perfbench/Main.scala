package perfbench

import java.nio.file.{Path, Paths}
import scala.collection.mutable

/** Settings and sinks of one benchmark run. */
final class RunContext(
    val workload: String,
    val seed: Long,
    val seconds: Int,
    val trace: Boolean,
    val corrupt: String,
    /** Smoke-test scale: tiny inputs, plus checks too slow for full runs. */
    val tiny: Boolean,
    /** Nanoseconds from process launch to `main`. */
    val bootNs: Long,
    /** Scratch directory inside the checkout (Spark files, traces). */
    val workDir: Path,
) {
  val tracer = new Tracer(trace)
  val layers = mutable.LinkedHashMap.empty[String, Double]

  def info(line: String): Unit = println(s"info $workload $line")

  def layer(name: String, value: Double): Unit = {
    require(Main.Layers.contains(name), s"unknown per-layer metric $name")
    require(!value.isNaN && !value.isInfinite, s"per-layer metric $name is $value")
    layers(name) = value
  }
}

/** Entry point: `--workload W --seed N --seconds S --trace 0|1` plus
  * `--scale full|tiny`, `--corrupt NAME` (smoke test: damage one result so
  * its gate must trip) and `--launched-ns` (wall clock at process launch).
  * Prints `info` lines, then one `RESULT {json}` line.
  */
object Main {

  /** Every per-layer metric with its unit. A workload that does not
    * exercise a layer reports its metrics as 0.
    */
  val Layers: Map[String, String] = Map(
    "timely.sim_run_s"             -> "s",
    "timely.frontier_advances"     -> "count",
    "timely.worker_busy_share"     -> "share",
    "timely.worker_busy_max_share" -> "share",
    "timely.net_inflight_peak_mib" -> "MiB",
    "core.fold_calls"              -> "count",
    "core.fold_s"                  -> "s",
    "core.fold_calls_per_event"    -> "calls/event",
    "core.notify_pending_peak"     -> "count",
    "core.engine_self_s"           -> "s",
    "core.migrations"              -> "count",
    "core.migrated_mib"            -> "MiB",
    "core.state_mib"               -> "MiB",
    "harness.record_calls"         -> "count",
    "harness.record_s"             -> "s",
    "nexmark.gen_s"                -> "s",
    "sparkmega.migrate_ms"         -> "ms",
    "sparkmega.moved_rows"         -> "count",
    "sparkmega.moved_share"        -> "share",
    "sparkmega.fold_ms"            -> "ms",
    "sparkmega.state_rows"         -> "count",
    "jvm.gc_s"                     -> "s",
    "jvm.gc_count"                 -> "count",
    "jvm.alloc_mib"                -> "MiB",
    "jvm.alloc_bytes_per_event"    -> "B/event",
    "trace.overhead_share"         -> "share",
    "trace.spans"                  -> "count",
  )

  private def arg(args: Map[String, String], k: String): String =
    args.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))

  def main(argv: Array[String]): Unit = {
    val now    = java.time.Instant.now()
    val mainNs = now.getEpochSecond * 1_000_000_000L + now.getNano
    // Spark and DuckDB may leave non-daemon threads behind, so exit explicitly.
    try run(argv, mainNs)
    catch {
      case e: Throwable =>
        e.printStackTrace()
        sys.exit(1)
    }
    sys.exit(0)
  }

  private def run(argv: Array[String], mainNs: Long): Unit = {
    require(argv.length % 2 == 0 && argv.grouped(2).forall(_(0).startsWith("--")), s"bad arguments: ${argv.mkString(" ")}")
    val args = argv.grouped(2).map(p => p(0).drop(2) -> p(1)).toMap
    val ctx = new RunContext(
      workload = arg(args, "workload"),
      seed = arg(args, "seed").toLong,
      seconds = arg(args, "seconds").toInt,
      trace = arg(args, "trace") == "1",
      corrupt = args.getOrElse("corrupt", ""),
      tiny = args.get("scale").contains("tiny"),
      bootNs = args.get("launched-ns").map(l => math.max(0L, mainNs - l.toLong)).getOrElse(0L),
      workDir = Paths.get(args.getOrElse("work-dir", ".bench_build/run")).toAbsolutePath,
    )
    val (gates, metrics) = ctx.workload match {
      case "counting-fluid"  => SimRunner.run(if (ctx.tiny) Counting.tiny else Counting.full, ctx)
      case "nexmark-q4"      => SimRunner.run(if (ctx.tiny) NexmarkQ4.tiny else NexmarkQ4.full, ctx)
      case "spark-wordcount" => (if (ctx.tiny) SparkWordcount.tiny else SparkWordcount.full).run(ctx)
      case other             => throw new IllegalArgumentException(s"unknown workload $other")
    }
    gates.failures.foreach(f => ctx.info(s"gate failed: $f"))
    ctx.info(f"failed_share ${gates.failed.toDouble / math.max(1L, gates.attempted)}%.6f (${gates.failed} of ${gates.attempted} results)")

    val reported: Seq[(String, Metric)] =
      if (ctx.trace) {
        ctx.layer("trace.spans", ctx.tracer.count.toDouble)
        ctx.tracer.write(ctx.workDir.resolve("traces").resolve(s"${ctx.workload}-seed${ctx.seed}.jsonl"))
        Layers.keys.toSeq.sorted.map(k => k -> Metric(ctx.layers.getOrElse(k, 0.0), Layers(k)))
      } else metrics.toMap.toSeq
    val json = reported.map { case (k, m) => s"${Json.str(k)}:{\"value\":${Json.num(m.value)},\"unit\":${Json.str(m.unit)}}" }
    println(s"""RESULT {"correct":${gates.failed == 0},"attempted":${gates.attempted},"failed":${gates.failed},"metrics":{${json.mkString(",")}}}""")
    Console.out.flush()
  }
}
