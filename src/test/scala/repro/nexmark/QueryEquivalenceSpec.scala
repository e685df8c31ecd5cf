package repro.nexmark

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{AllAtOnce, Batched, Fluid, Moves, Strategy}
import repro.harness.{LatencyHistogram, LatencySeries}
import scala.collection.mutable

/** Cross-validation: the Megaphone implementations (running end-to-end on the
  * simulated engine) and the hand-tuned native implementations (running on
  * the single-threaded reference harness) must produce the same outputs on
  * identical event streams.
  */
object QueryTestDrive {
  val EpochNs = 1_000_000L

  def config(workers: Int): QueryRig.NexConfig = QueryRig.NexConfig(
    workers = workers,
    bins = 64,
    ratePerSec = 100_000, // 100 events per 1 ms epoch
    windowNs = 20_000_000L,
    q8WindowNs = 50_000_000L,
    auctionLifeNs = 30_000_000L,
    cost = repro.core.CostModel.keyCount.copy(hiccupEveryNs = 0), // deterministic
    seed = 21L,
  )

  /** Run query `q` on the engine for `epochs` epochs; returns collected
    * outputs and the events that were fed.
    */
  def mega(q: Int, epochs: Int, workers: Int = 1, strategy: Option[Strategy] = None): (Seq[Product], Seq[Event]) = {
    val cfg  = config(workers)
    val outs = mutable.ArrayBuffer.empty[Product]
    val built = QueryRig.build(q, cfg, new LatencyHistogram, new LatencySeries, collect = outs)
    val gen   = new EventGen(EpochNs, 100, cfg.auctionLifeNs, cfg.seed)
    val fed   = mutable.ArrayBuffer.empty[Event]
    val totalNs = epochs * EpochNs

    def inject(e: Long): Unit = {
      val t = e * EpochNs
      if (t >= totalNs) { built.closeData(); return }
      val evs = gen.epoch(e)
      fed ++= evs
      built.send(t, evs)
      built.advance(t + EpochNs)
      built.controlAdvance(t + EpochNs)
      built.sim.at(t + 2 * EpochNs)(inject(e + 1))
    }
    built.sim.at(EpochNs)(inject(0))

    strategy match {
      case None => built.closeControl()
      case Some(s) =>
        built.migrate(totalNs / 3, s, Moves.imbalance(built.mainBins, workers), (_, _) =>
          built.migrate(built.sim.now + 1, s, Moves.rebalance(built.mainBins, workers), (_, _) =>
            built.closeControl()))
    }
    built.sim.run()
    require(built.drained(), s"Q$q did not drain")
    (outs.toSeq, fed.toSeq)
  }

  def native(q: Int, events: Seq[Event], cfgW: QueryRig.NexConfig, epochs: Int): Seq[Product] = {
    import NativeQueries._
    val op: NativeOp = q match {
      case 1 => new Q1Native
      case 2 => new Q2Native
      case 3 => new Q3Native
      case 4 => new Q4Native()
      case 5 => new Q5Native(cfgW.windowNs)
      case 6 => new Q6Native
      case 7 => new Q7Native(cfgW.windowNs)
      case 8 => new Q8Native(cfgW.q8WindowNs)
    }
    NativeQueries.drive(op, events, EpochNs, epochs * EpochNs + cfgW.q8WindowNs + cfgW.auctionLifeNs + cfgW.windowNs)
  }
}

class QueryEquivalenceSpec extends AnyFunSuite {
  import QueryTestDrive._

  private def multiset(xs: Seq[Product]) = xs.groupBy(identity).view.mapValues(_.size).toMap

  for (q <- Seq(1, 2, 3, 7, 8)) {
    test(s"Q$q: megaphone and native outputs agree (multisets)") {
      val (megaOut, events) = mega(q, epochs = 60)
      val natOut            = native(q, events, config(1), 60)
      assert(megaOut.nonEmpty, s"Q$q produced no output")
      assert(multiset(megaOut) == multiset(natOut))
    }
  }

  test("Q5: megaphone and native max-reports agree on a single worker") {
    val (megaOut, events) = mega(5, epochs = 60)
    val natOut            = native(5, events, config(1), 60)
    assert(megaOut.nonEmpty)
    assert(multiset(megaOut) == multiset(natOut))
  }

  test("Q4/Q6 close detection: winning (seller, price) multisets agree") {
    // Native Q4 with emitSeller gives raw winners; megaphone Q6's stage 1 is
    // the same CloseLogic — compare via Q6 stage-2 input counts: both sides
    // must close the same auctions with the same winning prices.
    val (megaOut, events) = mega(6, epochs = 60)
    val natOut            = native(6, events, config(1), 60)
    assert(megaOut.nonEmpty)
    assert(multiset(megaOut) == multiset(natOut))
  }

  test("Q4: final per-category averages agree with native") {
    val (megaOut, events) = mega(4, epochs = 60)
    val natOut            = native(4, events, config(1), 60)
    def finals(xs: Seq[Product]) =
      xs.map(_.asInstanceOf[(Long, Long)]).groupBy(_._1).view.mapValues(_.last._2).toMap
    assert(megaOut.nonEmpty)
    assert(finals(megaOut) == finals(natOut))
  }

  for (q <- Seq(3, 7, 8); s <- Seq[Strategy](AllAtOnce, Fluid(), Batched(4))) {
    test(s"Q$q outputs are invariant under ${s.name} migration (4 workers)") {
      val (base, _) = mega(q, epochs = 45, workers = 4)
      val (mig, _)  = mega(q, epochs = 45, workers = 4, strategy = Some(s))
      assert(multiset(base) == multiset(mig))
    }
  }

  test("Q4 output count is invariant under migration (averages may reorder)") {
    val (base, _) = mega(4, epochs = 45, workers = 4)
    val (mig, _)  = mega(4, epochs = 45, workers = 4, strategy = Some(AllAtOnce))
    assert(base.size == mig.size)
    def finals(xs: Seq[Product]) =
      xs.map(_.asInstanceOf[(Long, Long)]).groupBy(_._1).view.mapValues(_.size).toMap
    assert(finals(base) == finals(mig))
  }

  test("Q6 (migrating its stage-2 operator) preserves output counts") {
    val (base, _) = mega(6, epochs = 45, workers = 4)
    val (mig, _)  = mega(6, epochs = 45, workers = 4, strategy = Some(Batched(8)))
    assert(base.size == mig.size)
  }

  test("Q4 under batched migration and scheduling noise keeps its exact simulated figures") {
    // Figures of this run as first recorded (see CountingWorkloadSpec).
    val cfg = config(4).copy(cost = repro.core.CostModel.keyCount.copy(perRecordNs = 250.0))
    val row = repro.exp.NexmarkExp.run(4, Some(Batched(4)), cfg, totalNs = 3_000_000_000L)
    assert(row == repro.exp.NexmarkExp.Row(4, "batched", 1321944L, 1325051L, 4624198L, 17995L))
  }

  test("stateless Q1 is unaffected by migration entirely") {
    val (base, _) = mega(1, epochs = 30, workers = 4)
    val (mig, _)  = mega(1, epochs = 30, workers = 4, strategy = Some(AllAtOnce))
    assert(multiset(base) == multiset(mig))
  }
}
