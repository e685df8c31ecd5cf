package perfbench

import repro.core._
import repro.harness.{CountingWorkload, LatencyHistogram, LatencySeries}
import repro.timely.Sim
import scala.collection.mutable

/** `counting-fluid`: the §5.3 counting workload in aggregate mode at the
  * Figure 1 scale, with a fluid migration of a quarter of the bins out and
  * back.
  *
  * The run below follows `CountingWorkload.run` step for step (the smoke test
  * checks the figures agree), but keeps the engine in reach so the gates can
  * inspect its bins and the traced run can wrap its layers: the program's
  * runner does not expose its engine. So a change to the driving code inside
  * `CountingWorkload.run` does not show here; one to the engine does. The source is a
  * closed-form hash of (epoch, worker, group) with no generator state, so
  * there is no input to pre-generate; the seed drives the engine's scheduling
  * noise.
  */
final class Counting(val cfg: CountingWorkload.Config, val totalNs: Long, val strategy: Strategy, val seedsPerRun: Int)
    extends SimWorkload {
  def name = "counting-fluid"

  private def config(seed: Long) = cfg.copy(seed = seed)

  def fingerprint(seed: Long): String =
    s"workload=$name cost=${cfg.cost} workers=${cfg.workers} bins=${cfg.bins} domain=${cfg.domain} " +
      s"rate=${cfg.ratePerSec} bytesPerKey=${cfg.bytesPerKey} groups=${cfg.groupsPerEpoch} totalNs=$totalNs " +
      s"strategy=$strategy simulations=$seedsPerRun seed=$seed"

  def runOnce(seed: Long, tracer: Tracer, corrupt: String, gates: Gates): (SimRun, AnyRef) = {
    val t0      = System.nanoTime()
    val c       = config(seed)
    val sim     = new Sim
    val bins    = c.bins
    val cost    = c.cost
    val hist    = new LatencyHistogram
    val series  = new LatencySeries
    val meter   = new SimMeter(tracer)
    val engine = new MegaphoneEngine[Int, Unit, Unit](
      sim, c.workers, bins, cost, meter.logic(new CountingWorkload.CountLogic), binOf = identity,
      onLatency = meter.recorder(sim, hist, series), noiseSeed = c.seed)
    engine.initBins(modeledBytesPerBin = math.max(1L, c.domain / bins) * c.bytesPerKey)
    var horizon = totalNs
    engine.enableNoise(totalNs * 20)

    val epochNs        = cost.epochNs
    val perWorkerEpoch = c.ratePerSec.toDouble * epochNs / 1e9 / c.workers
    val groups         = math.max(1, math.min(c.groupsPerEpoch, bins / c.workers))
    val carry          = new Array[Double](c.workers)
    var migsDone       = 0
    var events         = 0L
    var injected       = 0L

    def inject(epoch: Long): Unit = {
      val t = epoch * epochNs
      if (t >= horizon && migsDone >= 2) { engine.dataInput.close(); engine.stopNoise(); meter.stop(); return }
      var w = 0
      while (w < c.workers) {
        carry(w) += perWorkerEpoch
        val weight = carry(w).toLong
        if (weight > 0) {
          carry(w) -= weight
          val base = weight / groups
          val recs = (0 until groups).map { g =>
            val bin = (((epoch * c.workers + w) * groups + g) * 2654435761L % bins).toInt
            Rec[Int, Unit](bin, (), base + (if (g < weight % groups) 1 else 0))
          }.filter(_.weight > 0)
          events += recs.size
          injected += weight
          engine.dataInput.send(w, t, recs)
        }
        w += 1
      }
      engine.dataInput.advanceTo(t + epochNs)
      engine.controlInput.advanceTo(t + epochNs)
      sim.at(t + 2 * epochNs)(inject(epoch + 1))
    }
    sim.at(epochNs)(inject(0L))

    val migs       = mutable.ArrayBuffer.empty[(Long, Long)]
    val controller = new MigrationController(engine)
    controller.migrate(totalNs / 3, strategy, Moves.imbalance(bins, c.workers)) { (b, e) =>
      migs += ((b, e))
      migsDone += 1
      horizon = math.max(horizon, e + totalNs / 3)
      controller.migrate(e + totalNs / 6, strategy, Moves.rebalance(bins, c.workers)) { (b2, e2) =>
        migs += ((b2, e2))
        migsDone += 1
        horizon = math.max(horizon, e2 + totalNs / 6)
        engine.controlInput.close()
      }
    }
    meter.start(engine)
    val setupNs = System.nanoTime() - t0

    val (runNs, jvm) = meter.run(sim)

    val (b2, e2)  = migs.last
    val steadyEnd = migs.map(_._1).min - series.windowNs
    val figures = SimFigures.of(hist, series.maxIn(0, math.max(0, steadyEnd)),
      series.maxIn(b2, e2 + series.windowNs), e2 - b2)

    corrupt match {
      case "count"     => engine.sOps(engine.currentOwner(0)).bins(0).apply(0L, Rec[Int, Unit](0, (), 1L), _ => (), (_, _) => ())
      case "placement" =>
        val owner = engine.currentOwner(0)
        engine.sOps((owner + 1) % c.workers).bins(0) = engine.sOps(owner).bins.remove(0).get
      case "drain" => engine.probe.hold(0L)
      case _       =>
    }
    check(engine, bins, injected, migs.size, gates)
    (SimRun(setupNs, runNs, events, figures, if (tracer.enabled) meter.layers(runNs, jvm, events) else Map.empty), engine)
  }

  def agreesWithProgram(seed: Long, figures: SimFigures): Boolean = {
    val r = CountingWorkload.run(config(seed), totalNs, Some(strategy))
    val m = r.migrations.last
    SimFigures.of(r.hist, r.steadyMaxLatencyNs, m.maxLatencyNs, m.durationNs) == figures
  }

  /** Gates: every bin hosted exactly once, at its current owner; the bin
    * counts sum to the injected weight; both migrations completed; the output
    * frontier drained.
    */
  private def check(engine: MegaphoneEngine[Int, Unit, Unit], bins: Int, injected: Long, migrations: Int, gates: Gates): Unit = {
    val hosted = new Array[Int](bins)
    var misplaced = 0L
    var counted   = 0L
    engine.sOps.foreach { s =>
      s.bins.foreach { case (id, bin) =>
        hosted(id) += 1
        if (engine.currentOwner(id) != s.worker) misplaced += 1
        counted += bin.states.valuesIterator.map(_.asInstanceOf[Long]).sum
      }
    }
    gates.check("bins hosted once at their owner", bins.toLong, hosted.count(_ != 1) + misplaced)
    gates.ok(s"bin counts ($counted) sum to the injected weight ($injected)", counted == injected)
    gates.ok("both migrations completed", migrations == 2)
    gates.ok("output frontier drained", engine.probe.frontier == Long.MaxValue)
  }
}

object Counting {

  /** Figure 1 scale: 16 workers, 4096 bins, 10⁹ keys of 8 B, 4×10⁶ rec/s. */
  def full: Counting = new Counting(
    CountingWorkload.Config(bins = 1 << 12, domain = 1000L * 1000 * 1000),
    totalNs = 15_000_000_000L, strategy = Fluid(), seedsPerRun = 8)

  def tiny: Counting = new Counting(
    CountingWorkload.Config(workers = 4, bins = 64, domain = 64L * 1000 * 1000, ratePerSec = 400_000L),
    totalNs = 1_500_000_000L, strategy = Fluid(), seedsPerRun = 2)
}
