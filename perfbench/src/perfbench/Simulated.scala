package perfbench

import repro.core.{BinLogic, MegaphoneEngine}
import repro.harness.{HistQuantile, LatencyHistogram, LatencySeries}
import repro.timely.Sim

/** The paper's simulated metrics of one run. They are a pure function of the
  * model, its parameters and the seed, so they must repeat bit-for-bit.
  */
final case class SimFigures(
    p50Ns: Double,
    p9999Ns: Double,
    /** Weighted latency samples behind the percentiles. */
    samples: Double,
    steadyMaxNs: Long,
    migMaxNs: Long,
    migDurationNs: Long,
)

object SimFigures {
  def of(hist: LatencyHistogram, steadyMaxNs: Long, migMaxNs: Long, migDurationNs: Long): SimFigures =
    SimFigures(HistQuantile.ns(hist, 0.5), HistQuantile.ns(hist, 0.9999), hist.count,
      steadyMaxNs, migMaxNs, migDurationNs)
}

/** One simulated run at one seed. */
final case class SimRun(
    setupNs: Long,
    runNs: Long,
    events: Long,
    figures: SimFigures,
    layers: Map[String, Double],
)

/** A workload on the simulated substrate, run once per seed. */
trait SimWorkload {
  def name: String

  /** Model and parameters that decide the simulated metrics. */
  def fingerprint(seed: Long): String

  /** Independent seeds per run: the paper's maxima vary with scheduling
    * noise, so the reported figures are medians over this many simulations.
    */
  def seedsPerRun: Int

  /** Set up (outside the timed section) and run one simulation, checking its
    * outputs into `gates`. With an enabled `tracer`, `layers` holds
    * per-layer metrics. Also returns what the finished run holds on to (its
    * engines and outputs), for the caller to measure the heap with.
    */
  def runOnce(seed: Long, tracer: Tracer, corrupt: String, gates: Gates): (SimRun, AnyRef)

  /** Whether the program's own runner, at `seed`, reports the same figures
    * as this benchmark's copy of the run (checked at the smoke-test scale).
    */
  def agreesWithProgram(seed: Long, figures: SimFigures): Boolean
}

/** Per-layer measurements shared by the simulated workloads, read from
  * outside the engines: probe listeners, periodic samples on the simulated
  * clock, and JVM counters around `Sim.run`.
  */
final class SimMeter(tracer: Tracer) {
  private val fold   = new Timer
  private val record = new Timer
  private var engines      = Seq.empty[MegaphoneEngine[_, _, _]]
  private var advances     = 0L
  private var inflightPeak = 0L
  private var pendingPeak  = 0L
  private var stopped      = false

  /** Samples ride on extra simulator events that only read state, so the
    * simulated schedule is unchanged (the trace run checks this).
    */
  def start(es: MegaphoneEngine[_, _, _]*): Unit = {
    engines = es
    if (tracer.enabled) sample()
  }

  private def sample(): Unit = {
    engines.foreach(_.probe.onAdvance(_ => advances += 1))
    val sim = engines.head.sim
    def sampleNet(at: Long): Unit = sim.at(at) {
      inflightPeak = math.max(inflightPeak, engines.iterator.map(_.net.inFlightBytes).sum)
      if (!stopped) sampleNet(at + SimMeter.NetEveryNs)
    }
    def samplePending(at: Long): Unit = sim.at(at) {
      val pending = engines.iterator.flatMap(_.sOps.iterator).flatMap(_.bins.valuesIterator).map(_.pending.size.toLong).sum
      pendingPeak = math.max(pendingPeak, pending)
      if (!stopped) samplePending(at + SimMeter.PendingEveryNs)
    }
    sampleNet(0L)
    samplePending(0L)
  }

  /** User logic for S, wrapped to count and time `fold` when tracing. */
  def logic[K, V, O](l: BinLogic[K, V, O]): BinLogic[K, V, O] =
    if (tracer.enabled) new TimedLogic(l, fold) else l

  /** The `onLatency` callback the program's runners install, timed when
    * tracing.
    */
  def recorder(sim: Sim, hist: LatencyHistogram, series: LatencySeries): (Long, Long, Long) => Unit =
    if (tracer.enabled) (lo, hi, w) => {
      val t0 = System.nanoTime()
      hist.addRange(lo, hi, w.toDouble)
      series.add(sim.now, hi)
      record.add(t0)
    }
    else (lo, hi, w) => { hist.addRange(lo, hi, w.toDouble); series.add(sim.now, hi) }

  /** Called when the data input closes. */
  def stop(): Unit = stopped = true

  /** Run `sim`, timing it; returns wall nanoseconds. A full collection first
    * keeps garbage of earlier runs out of this one's time.
    */
  def run(sim: Sim): (Long, Map[String, Double]) = {
    System.gc()
    val j0  = Jvm.snap()
    val t0  = System.nanoTime()
    tracer.span("timely.Sim.run")(sim.run())
    val runNs = System.nanoTime() - t0
    val j1    = Jvm.snap()
    val jvm = Map(
      "jvm.gc_s"     -> (j1.gcMs - j0.gcMs) / 1e3,
      "jvm.gc_count" -> (j1.gcCount - j0.gcCount).toDouble,
      "jvm.alloc_mib" -> (j1.allocBytes - j0.allocBytes) / SimMeter.MiB,
    )
    (runNs, jvm)
  }

  /** Per-layer metrics after the run; `events` is the workload's input count. */
  def layers(runNs: Long, jvm: Map[String, Double], events: Long): Map[String, Double] = {
    val sim     = engines.head.sim
    val simEnd  = math.max(1L, sim.now).toDouble
    val workers = engines.map(_.numWorkers).max
    // Operators of every stage share their worker's CPU in timely; sum per worker.
    val busy = Array.tabulate(workers)(w => engines.iterator.filter(_.numWorkers > w).map(_.workers(w).busyNs).sum.toDouble)
    val migratedBytes = engines.iterator.flatMap { e =>
      e.migrationLog.iterator.map(m => e.sOps(e.currentOwner(m.bin)).bins.get(m.bin).map(_.sizeBytes).getOrElse(0L))
    }.sum
    val stateBytes = engines.iterator.flatMap(e => (0 until e.numWorkers).iterator.map(e.stateBytesOfWorker)).sum
    val runS       = runNs / 1e9
    Map(
      "timely.sim_run_s"             -> runS,
      "timely.frontier_advances"     -> advances.toDouble,
      "timely.worker_busy_share"     -> busy.sum / (workers * simEnd),
      "timely.worker_busy_max_share" -> busy.max / simEnd,
      "timely.net_inflight_peak_mib" -> inflightPeak / SimMeter.MiB,
      "core.fold_calls"              -> fold.calls.toDouble,
      "core.fold_s"                  -> fold.ns / 1e9,
      "core.fold_calls_per_event"    -> fold.calls.toDouble / math.max(1L, events),
      "core.notify_pending_peak"     -> pendingPeak.toDouble,
      "core.engine_self_s"           -> (runS - fold.ns / 1e9 - record.ns / 1e9),
      "core.migrations"              -> engines.map(_.migrationLog.size).sum.toDouble,
      "core.migrated_mib"            -> migratedBytes / SimMeter.MiB,
      "core.state_mib"               -> stateBytes / SimMeter.MiB,
      "harness.record_calls"         -> record.calls.toDouble,
      "harness.record_s"             -> record.ns / 1e9,
      "jvm.alloc_bytes_per_event"    -> jvm("jvm.alloc_mib") * SimMeter.MiB / math.max(1L, events),
    ) ++ jvm
  }
}

object SimMeter {
  val MiB            = 1024.0 * 1024.0
  val NetEveryNs     = 1_000_000L
  val PendingEveryNs = 10_000_000L
}

/** Drives a [[SimWorkload]] for one benchmark run. */
object SimRunner {

  /** Seed of the `i`-th simulation of a run at `seed`. */
  private def subSeed(seed: Long, i: Int): Long = seed * 1_000_003L + i

  def run(w: SimWorkload, ctx: RunContext): (Gates, Metrics) = {
    val gates = new Gates
    val seeds = (0 until w.seedsPerRun).map(subSeed(ctx.seed, _))
    ctx.info(s"fingerprint ${Digest.of(w.fingerprint(ctx.seed))} ${w.fingerprint(ctx.seed)}")
    if (ctx.trace) traced(w, ctx, seeds, gates) else untraced(w, ctx, seeds, gates)
  }

  private def report(ctx: RunContext, w: SimWorkload, seed: Long, r: SimRun, tag: String): Unit = {
    val f = r.figures
    ctx.info(f"$tag seed=$seed setup_ms=${r.setupNs / 1e6}%.1f run_s=${r.runNs / 1e9}%.3f events=${r.events} " +
      f"events_per_s=${r.events / (r.runNs / 1e9)}%.0f sim=${Digest.of(f.toString)} p50_ms=${f.p50Ns / 1e6}%.4f " +
      f"p9999_ms=${f.p9999Ns / 1e6}%.4f steady_max_ms=${f.steadyMaxNs / 1e6}%.3f mig_max_ms=${f.migMaxNs / 1e6}%.3f " +
      f"mig_s=${f.migDurationNs / 1e9}%.4f weight=${f.samples}%.0f")
  }

  private def untraced(w: SimWorkload, ctx: RunContext, seeds: Seq[Long], gates: Gates): (Gates, Metrics) = {
    val start = System.nanoTime()
    // The heap is read at a fixed point, after the last of the first
    // simulations, while only that one's engines are reachable: how many
    // repeats fit in the time must not show in it.
    var heapMiB = 0.0
    val first = seeds.map { s =>
      val (r, keep) = w.runOnce(s, ctx.tracer, ctx.corrupt, gates)
      report(ctx, w, s, r, "sim")
      if (s == seeds.last) heapMiB = Jvm.liveHeapMiB(keep)
      r
    }
    if (ctx.tiny) gates.ok("benchmark run agrees with the program's runner", w.agreesWithProgram(seeds.head, first.head.figures))
    // Fill the rest of the measuring time by repeating the same seeds; each
    // repeat must reproduce its first run's figures exactly.
    val all  = first.toBuffer
    val each = first.map(r => r.setupNs + r.runNs).sum / first.size
    var i    = 0
    while (System.nanoTime() - start + each <= ctx.seconds * 1_000_000_000L) {
      val (r, _) = w.runOnce(seeds(i % seeds.size), ctx.tracer, ctx.corrupt, gates)
      report(ctx, w, seeds(i % seeds.size), r, "repeat")
      gates.ok("determinism", r.figures == first(i % seeds.size).figures)
      all += r
      i += 1
    }
    val m   = new Metrics
    val fig = first.map(_.figures)
    // Process launch to the first timed input: the cold set-up, once.
    m("setup_s") = (ctx.bootNs + first.head.setupNs) / 1e9 -> "s"
    m("events_per_s") = Stats.median(all.map(r => r.events / (r.runNs / 1e9)).toSeq) -> "1/s"
    m("live_heap_mib") = heapMiB -> "MiB"
    m("latency_p50_ms") = Stats.median(fig.map(_.p50Ns)) / 1e6 -> "ms"
    m("latency_p9999_ms") = Stats.median(fig.map(_.p9999Ns)) / 1e6 -> "ms"
    m("steady_max_latency_ms") = Stats.median(fig.map(_.steadyMaxNs.toDouble)) / 1e6 -> "ms"
    m("mig_max_latency_ms") = Stats.median(fig.map(_.migMaxNs.toDouble)) / 1e6 -> "ms"
    m("mig_duration_s") = Stats.median(fig.map(_.migDurationNs.toDouble)) / 1e9 -> "s"
    ctx.info(f"samples simulations=${fig.size} repeats=${all.size - fig.size} latency_weight_per_sim=${Stats.median(fig.map(_.samples))}%.0f " +
      s"events_total=${all.map(_.events).sum}")
    (gates, m)
  }

  private def traced(w: SimWorkload, ctx: RunContext, seeds: Seq[Long], gates: Gates): (Gates, Metrics) = {
    val start  = System.nanoTime()
    val plain  = scala.collection.mutable.ArrayBuffer.empty[SimRun]
    val tracedRuns = scala.collection.mutable.ArrayBuffer.empty[SimRun]
    var i = 0
    def pairNs = (plain.map(r => r.setupNs + r.runNs).sum + tracedRuns.map(r => r.setupNs + r.runNs).sum) / math.max(1, i)
    while (i == 0 || (i < seeds.size && System.nanoTime() - start + pairNs <= ctx.seconds * 1_000_000_000L)) {
      val s = seeds(i)
      def plainRun() = ctx.tracer.span(s"${w.name}.untraced")(w.runOnce(s, new Tracer(false), ctx.corrupt, gates)._1)
      def tracedRun() = ctx.tracer.span(s"${w.name}.traced")(w.runOnce(s, ctx.tracer, ctx.corrupt, gates)._1)
      // Alternate which side runs first so JIT warm-up favours neither.
      val (u, t) = if (i % 2 == 0) { val u = plainRun(); (u, tracedRun()) } else { val t = tracedRun(); (plainRun(), t) }
      report(ctx, w, s, u, "untraced")
      report(ctx, w, s, t, "traced")
      // Tracing and sampling must not perturb the model.
      gates.ok("trace-reproduces-simulation", u.figures == t.figures)
      plain += u; tracedRuns += t
      i += 1
    }
    tracedRuns.head.layers.keys.foreach(k => ctx.layer(k, Stats.median(tracedRuns.map(_.layers(k)).toSeq)))
    val eps = (rs: Seq[SimRun]) => Stats.median(rs.map(r => r.events / (r.runNs / 1e9)))
    ctx.layer("trace.overhead_share", 1.0 - eps(tracedRuns.toSeq) / eps(plain.toSeq))
    ctx.info(f"trace pairs=$i untraced_events_per_s=${eps(plain.toSeq)}%.0f traced_events_per_s=${eps(tracedRuns.toSeq)}%.0f")
    (gates, new Metrics)
  }
}
