package perfbench

import repro.core._
import repro.harness.{LatencyHistogram, LatencySeries}
import repro.nexmark._
import repro.nexmark.MegaphoneQueries._
import repro.timely.Sim
import scala.collection.mutable

/** `nexmark-q4`: NEXMark Q4 at record level on the two-stage Megaphone
  * dataflow, with a batched migration of the close-detection operator.
  *
  * Untraced runs build the dataflow with the program's `QueryRig.build(4,
  * ...)` and drive it as `NexmarkExp.run` does (the smoke test checks the
  * figures agree), with the events pre-generated in set-up. Traced runs use
  * a copy of the rig that wraps each layer; the trace gate checks that the
  * copy reproduces the program's figures.
  */
final class NexmarkQ4(val cfg: QueryRig.NexConfig, val totalNs: Long, val batch: Int, val seedsPerRun: Int)
    extends SimWorkload {
  def name = "nexmark-q4"

  private def strategy = Batched(batch)
  private def epochNs  = cfg.cost.epochNs
  private def perEpoch = math.max(1, (cfg.ratePerSec * epochNs / 1e9).toInt)

  def fingerprint(seed: Long): String =
    s"workload=$name cost=${cfg.cost} workers=${cfg.workers} bins=${cfg.bins} rate=${cfg.ratePerSec} " +
      s"auctionLifeNs=${cfg.auctionLifeNs} totalNs=$totalNs strategy=$strategy simulations=$seedsPerRun seed=$seed"

  /** Pre-generates every epoch of the run; returns the epochs and the time
    * spent inside `EventGen.epoch`.
    */
  private def generate(seed: Long, tracer: Tracer): (Array[Seq[Event]], Long) = {
    val gen = new EventGen(epochNs, perEpoch, cfg.auctionLifeNs, seed)
    val n   = (totalNs / epochNs).toInt
    val t0  = System.nanoTime()
    val out = tracer.span("nexmark.EventGen.epoch")(Array.tabulate(n)(e => gen.epoch(e.toLong)))
    (out, System.nanoTime() - t0)
  }

  /** `QueryRig.build(4, ...)` step for step, with the user logic and the
    * latency callback wrapped by `meter`; returns the rig and its engines.
    */
  private def tracedRig(
      c: QueryRig.NexConfig,
      hist: LatencyHistogram,
      series: LatencySeries,
      outs: mutable.Buffer[Out],
      meter: SimMeter,
  ): (QueryRig.Built, Seq[MegaphoneEngine[_, _, _]]) = {
    val sim = new Sim
    def binOf(bins: Int): Long => Int = k => (((k % bins) + bins) % bins).toInt

    val e2 = new MegaphoneEngine[Long, (Long, Long), Out](
      sim, c.workers, c.bins, c.cost, meter.logic(new AvgLogic), binOf(c.bins),
      onOutput = (_, _, o, _) => { outs += o; () },
      noiseSeed = c.seed + 1)
    e2.initBins()
    val e1 = new MegaphoneEngine[Long, In, Out](
      sim, c.workers, c.bins, c.cost, meter.logic(new CloseLogic(emitSeller = false)), binOf(c.bins),
      onOutput = (_, t, o, _) => {
        val (cat, price) = o.asInstanceOf[(Long, Long)]
        e2.dataInput.send((cat % c.workers).toInt, t, Seq(Rec(cat, (cat, price))))
      },
      onLatency = meter.recorder(sim, hist, series),
      noiseSeed = c.seed)
    e1.initBins()
    e1.probe.onAdvance { _ =>
      val f = e1.probe.frontier
      if (f == Long.MaxValue) e2.dataInput.close()
      else { e2.dataInput.advanceTo(f); e2.controlInput.advanceTo(f) }
    }
    val ctl = new MigrationController(e1)
    e2.controlInput.close()

    def send(t: Long, evs: Seq[Event]): Unit = {
      val recs = evs.flatMap {
        case b: Bid     => Some(Rec[Long, In](b.auction, BidIn(b)))
        case a: Auction => Some(Rec[Long, In](a.id, AuctionIn(a)))
        case _          => None
      }
      recs.grouped(math.max(1, recs.size / c.workers + 1)).zipWithIndex.foreach { case (g, w) =>
        e1.dataInput.send(w % c.workers, t, g)
      }
    }
    val rig = QueryRig.Built(
      sim,
      send = send,
      advance = t => e1.dataInput.advanceTo(t),
      closeData = () => e1.dataInput.close(),
      controlAdvance = t => e1.controlInput.advanceTo(t),
      closeControl = () => e1.controlInput.close(),
      migrate = (at, s, moves, done) => ctl.migrate(at, s, moves)(done),
      mainBins = c.bins,
      drained = () => e1.probe.frontier == Long.MaxValue && e2.probe.frontier == Long.MaxValue,
      outputCount = () => outs.size.toLong,
    )
    (rig, Seq(e1, e2))
  }

  def runOnce(seed: Long, tracer: Tracer, corrupt: String, gates: Gates): (SimRun, AnyRef) = {
    val t0              = System.nanoTime()
    val c               = cfg.copy(seed = seed)
    val (epochs, genNs) = generate(seed, tracer)
    val hist            = new LatencyHistogram
    val series          = new LatencySeries
    val outs            = mutable.ArrayBuffer.empty[Out]
    val meter           = new SimMeter(tracer)
    val (rig, engines) =
      if (tracer.enabled) tracedRig(c, hist, series, outs, meter)
      else (QueryRig.build(4, c, hist, series, collect = outs), Nil)
    val sim = rig.sim

    var events = 0L
    def inject(e: Long): Unit = {
      val t = e * epochNs
      if (t >= totalNs) { rig.closeData(); meter.stop(); return }
      val evs = epochs(e.toInt)
      events += evs.size
      rig.send(t, evs)
      rig.advance(t + epochNs)
      rig.controlAdvance(t + epochNs)
      sim.at(t + 2 * epochNs)(inject(e + 1))
    }
    sim.at(epochNs)(inject(0))

    var migs = List.empty[(Long, Long)]
    def closeCtl(): Unit =
      if (sim.now >= totalNs) rig.closeControl() else sim.at(totalNs)(rig.closeControl())
    rig.migrate(totalNs / 3, strategy, Moves.imbalance(rig.mainBins, c.workers), (b, e) => {
      migs ::= ((b, e))
      rig.migrate(math.max(e + 1, 2 * totalNs / 3), strategy, Moves.rebalance(rig.mainBins, c.workers), (b2, e2) => {
        migs ::= ((b2, e2))
        closeCtl()
      })
    })
    meter.start(engines: _*)
    val setupNs = System.nanoTime() - t0

    val (runNs, jvm) = meter.run(sim)

    val (b2, end2) = migs.head
    val figures = SimFigures.of(hist, series.maxIn(0, totalNs / 3 - series.windowNs),
      series.maxIn(b2, end2 + series.windowNs), end2 - b2)

    if (corrupt == "output" && outs.nonEmpty) {
      val (cat, avg) = outs(0).asInstanceOf[(Long, Long)]
      outs(0) = (cat, avg + 1)
    }
    gates.ok("output frontier drained", rig.drained())
    gates.ok("both migrations completed", migs.size == 2)
    checkAgainstNative(epochs, outs.toSeq, gates)

    val layers =
      if (tracer.enabled) meter.layers(runNs, jvm, events) + ("nexmark.gen_s" -> genNs / 1e9) else Map.empty[String, Double]
    (SimRun(setupNs, runNs, events, figures, layers), (rig, outs))
  }

  def agreesWithProgram(seed: Long, figures: SimFigures): Boolean = {
    val row = repro.exp.NexmarkExp.run(4, Some(strategy), cfg.copy(seed = seed), totalNs)
    (row.steadyMaxNs, row.migMaxNs, row.migDurationNs) == ((figures.steadyMaxNs, figures.migMaxNs, figures.migDurationNs))
  }

  /** Gate: the output multiset equals the hand-written native Q4 on the same
    * events. Every expected output not produced, and every extra output,
    * counts as one failed result.
    */
  private def checkAgainstNative(epochs: Array[Seq[Event]], outs: Seq[Product], gates: Gates): Unit = {
    val events = epochs.iterator.flatten.toSeq
    val native = NativeQueries.drive(new NativeQueries.Q4Native(), events, epochNs, totalNs + 2 * cfg.auctionLifeNs)
    val ord    = Ordering.Tuple2[Long, Long]
    val want   = native.map(_.asInstanceOf[(Long, Long)]).toArray.sorted(ord)
    val got    = outs.map(_.asInstanceOf[(Long, Long)]).toArray.sorted(ord)
    var i, j, missing, extra = 0
    while (i < want.size || j < got.size) {
      if (j >= got.size || (i < want.size && ord.lt(want(i), got(j)))) { missing += 1; i += 1 }
      else if (i >= want.size || ord.lt(got(j), want(i))) { extra += 1; j += 1 }
      else { i += 1; j += 1 }
    }
    gates.check(s"Q4 outputs equal native Q4 (${want.size} expected, ${got.size} produced)",
      math.max(1, want.size).toLong, (missing + extra).toLong)
  }
}

object NexmarkQ4 {

  /** 8 workers, 1024 bins, 10⁵ events/s for 30 simulated seconds; the
    * imbalance and rebalance migrations move 256 bins each, 16 per batch.
    */
  def full: NexmarkQ4 = new NexmarkQ4(QueryRig.NexConfig(), totalNs = 30_000_000_000L, batch = 16, seedsPerRun = 2)

  def tiny: NexmarkQ4 = new NexmarkQ4(
    QueryRig.NexConfig(workers = 4, bins = 64, ratePerSec = 50_000, auctionLifeNs = 200_000_000L),
    totalNs = 1_200_000_000L, batch = 4, seedsPerRun = 2)
}
