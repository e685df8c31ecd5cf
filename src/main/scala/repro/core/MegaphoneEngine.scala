package repro.core

import repro.timely.{Net, Sim, SimWorker, Tracker}
import scala.collection.mutable

/** The Megaphone construction of §3.4 over the simulated timely substrate.
  *
  * Each worker hosts an instance of the routing operator F and the
  * state-hosting operator S (Figure 3b). Three progress-tracking structures
  * coordinate them, mirroring the paper's dataflow edges:
  *
  *   - `main`    — pointstamps on the source→F→S path (messages in flight and
  *                 capabilities held by F, including pending migrations); its
  *                 frontier is S's input frontier.
  *   - `control` — the configuration-update stream's frontier; a configuration
  *                 at time t is final once this frontier passes t.
  *   - `probe`   — the output frontier of S (input frontier plus records and
  *                 post-dated work still pending inside S), a tracker of its
  *                 own. F initiates a migration at time t only once `probe`
  *                 reaches t, and migration strategies await `probe` passing
  *                 t for completion.
  *
  * Bins start at their home worker `bin % numWorkers`.
  *
  * Records carry a `weight` so benchmarks can drive paper-scale rates; all
  * costs and histogram counts scale by weight (see [[Rec]]).
  */
final class MegaphoneEngine[K, V, O](
    val sim: Sim,
    val numWorkers: Int,
    val numBins: Int,
    val cost: CostModel,
    val logic: BinLogic[K, V, O],
    binOf: K => Int,
    /** (completionNs, recordTime, output, weight) for every emitted output. */
    onOutput: (Long, Long, O, Long) => Unit = null,
    /** (loNs, hiNs, weight): applied input records arrived uniformly over
      * [recTime, recTime+epochNs), so their latencies span [loNs, hiNs].
      */
    onLatency: (Long, Long, Long) => Unit = null,
    noiseSeed: Long = 0xC0FFEEL,
) {
  require(numWorkers > 0 && numBins >= numWorkers, "need at least one bin per worker")

  val workers: Array[SimWorker] = Array.tabulate(numWorkers)(new SimWorker(_, sim))
  val net                       = new Net(sim, cost.netBytesPerNs, cost.netLatencyNs)
  val main                      = new Tracker("main")
  val control                   = new Tracker("control")
  val probe                     = new Tracker("s-output")

  /** Bytes of one data record on the wire. */
  val dataBytesPerRecord = 16L

  /** Test hook: observe every state update as (time, key, worker) — used to
    * check the Migration property (Property 2) against `route`.
    */
  var onApply: (Long, K, Int) => Unit = null

  private def holdBoth(t: Long, n: Long = 1L): Unit = { main.hold(t, n); probe.hold(t, n) }

  // ---------------------------------------------------------------- routing

  /** The configuration function as per-bin update histories: the owner of
    * `bin` from each update's time on. A bin's history is created by its
    * first update; until then the bin stays at its home worker.
    */
  private val history = new Array[java.util.TreeMap[Long, Int]](numBins)

  /** configuration(time, bin) → worker (§3.2). */
  def route(time: Long, bin: Int): Int = {
    val h = history(bin)
    val e = if (h == null) null else h.floorEntry(time)
    if (e == null) bin % numWorkers else e.getValue
  }

  /** Current owner per the latest ingested configuration. */
  def currentOwner(bin: Int): Int = route(Long.MaxValue, bin)

  // ------------------------------------------------------------------- bins

  /** Pre-create all bins at their initial owners. `modeledBytesPerBin` lets
    * aggregate-mode benchmarks model paper-scale state sizes without storing
    * the keys (see DESIGN.md substitutions).
    */
  def initBins(modeledBytesPerBin: Long = 0L): Unit = {
    var b = 0
    while (b < numBins) {
      val bin = new Bin[K, V, O](b, logic)
      bin.modeledBytes = modeledBytesPerBin
      sOps(currentOwner(b)).bins(b) = bin
      b += 1
    }
  }

  def stateBytesOfWorker(w: Int): Long = sOps(w).bins.valuesIterator.map(_.sizeBytes).sum

  // -------------------------------------------------------------- operators

  /** State-hosting operator S: installs migrated bins and applies records in
    * timestamp order once not in advance of its input frontier (§3.4).
    */
  final class SOp(val worker: Int) {
    val bins = mutable.HashMap.empty[Int, Bin[K, V, O]]

    /** Buffered input: time → received messages, each holding `probe` once. */
    val pendingInput = new java.util.TreeMap[Long, mutable.ArrayBuffer[Seq[Rec[K, V]]]]()

    /** Post-dated records pending across this S's bins (loop guard). */
    private[core] var notifyCount = 0L
    private var applyQueued       = false

    def receive(t: Long, recs: Seq[Rec[K, V]]): Unit = {
      pendingInput.computeIfAbsent(t, _ => mutable.ArrayBuffer.empty) += recs
      // The in-flight message's pointstamp moves from `main` into S-internal
      // pending: S's *input* frontier may now pass t (which is exactly what
      // makes the records applicable) while `probe` — S's output — still
      // holds t until they are applied.
      main.release(t)
    }

    def install(t: Long, bin: Bin[K, V, O]): Unit = {
      bins(bin.id) = bin
      notifyCount += bin.pending.size
      // Probe holds for the bin's post-dated records persist across the
      // migration (the state message's pointstamp at t <= all pending times
      // kept the frontier from passing them in transit).
      probe.release(t) // the state message's own pointstamp
      tryApply()
    }

    def uninstall(binId: Int): Bin[K, V, O] = {
      val bin = bins.remove(binId).get
      notifyCount -= bin.pending.size
      bin
    }

    def tryApply(): Unit = {
      if (applyQueued) return
      val f = main.frontier
      if ((pendingInput.isEmpty || pendingInput.firstKey() >= f) && notifyCount == 0) return

      val inputWork = mutable.ArrayBuffer.empty[(Long, Seq[Rec[K, V]])]
      while (!pendingInput.isEmpty && pendingInput.firstKey() < f) {
        val e = pendingInput.pollFirstEntry()
        e.getValue.foreach(msg => inputWork += ((e.getKey, msg)))
      }
      val notifyWork = mutable.ArrayBuffer.empty[(Long, Long, Rec[K, V])]
      if (notifyCount > 0) {
        bins.valuesIterator.foreach { bin =>
          if (bin.pending.minTime < f) notifyWork ++= bin.pending.drain(f)
        }
        notifyCount -= notifyWork.size
      }
      if (inputWork.isEmpty && notifyWork.isEmpty) return
      applyQueued = true

      var recCost = 0.0
      inputWork.foreach { case (_, msg) => msg.foreach(r => recCost += r.weight * cost.perRecordNs) }
      notifyWork.foreach { case (_, _, r) => recCost += r.weight * cost.perRecordNs }
      val scanCost = bins.size * cost.binScanNs(numBins.toLong)
      val total    = (recCost + scanCost).toLong

      workers(worker).exec(total) { done =>
        applyQueued = false
        // Apply in timestamp order across both sources (§3.2: sequential,
        // timestamp-ordered application per key): same-time input records
        // come before post-dated ones (which were scheduled strictly earlier
        // and become due together), and post-dated ties replay FIFO.
        val all =
          (inputWork.iterator.flatMap { case (t, msg) => msg.iterator.map(r => (t, r, true, 0L)) } ++
            notifyWork.iterator.map { case (t, s, r) => (t, r, false, s) }).toArray
        scala.util.Sorting.stableSort(
          all,
          (a: (Long, Rec[K, V], Boolean, Long), b: (Long, Rec[K, V], Boolean, Long)) =>
            a._1 < b._1 || (a._1 == b._1 && ((a._3 && !b._3) || (a._3 == b._3 && a._4 < b._4))),
        )
        all.foreach { case (t, r, fromInput, _) =>
          val binId = binOf(r.key)
          if (onApply != null) onApply(t, r.key, worker)
          val bin = bins.getOrElseUpdate(binId, new Bin[K, V, O](binId, logic))
          bin.apply(
            t,
            r,
            o => if (onOutput != null) onOutput(done, t, o, r.weight),
            (t2, r2) => {
              require(t2 > t, s"notify must be post-dated: $t2 <= $t")
              require(binOf(r2.key) == binId, "post-dated records stay in their key's bin")
              notifySeq += 1
              bin.pending.schedule(t2, r2, notifySeq)
              notifyCount += 1
              probe.hold(t2)
            },
          )
          if (fromInput && onLatency != null)
            onLatency(math.max(0L, done - (t + cost.epochNs)), math.max(1L, done - t), r.weight)
          if (!fromInput) probe.release(t) // the post-dated record's hold
        }
        inputWork.foreach { case (t, _) => probe.release(t) } // each message's hold
        tryApply() // post-dated work may have become due meanwhile
      }
    }
  }

  /** Routing operator F: routes by the configuration at each record's time,
    * buffering records whose time is in advance of the control frontier, and
    * initiating state migrations (§3.4).
    */
  final class FOp(val worker: Int) {
    /** Records whose time is in advance of the control frontier. */
    val buffered = new java.util.TreeMap[Long, mutable.ArrayBuffer[Rec[K, V]]]()

    def receive(t: Long, recs: Seq[Rec[K, V]]): Unit = {
      val weight = recs.iterator.map(_.weight).sum
      workers(worker).exec((weight * cost.routeNs).toLong) { _ =>
        if (t < control.frontier) routeNow(t, recs)
        else buffered.computeIfAbsent(t, _ => mutable.ArrayBuffer.empty) ++= recs
      }
    }

    private def routeNow(t: Long, recs: Seq[Rec[K, V]]): Unit = {
      val byDst = recs.groupBy(r => route(t, binOf(r.key)))
      holdBoth(t, byDst.size.toLong)
      main.release(t); probe.release(t) // the single batch hold splits per destination
      byDst.foreach { case (dst, rs) =>
        val bytes = rs.iterator.map(_.weight).sum * dataBytesPerRecord
        net.send(worker, dst, bytes)(_ => sOps(dst).receive(t, rs))
      }
    }

    def onControlAdvance(f: Long): Unit =
      while (!buffered.isEmpty && buffered.firstKey() < f) {
        val t    = buffered.firstKey()
        val recs = buffered.pollFirstEntry().getValue
        // Routing work was already charged at first receipt; releasing the
        // buffer is a lookup we fold into scheduling noise.
        routeNow(t, recs.toSeq)
      }
  }

  val sOps: Array[SOp] = Array.tabulate(numWorkers)(new SOp(_))
  val fOps: Array[FOp] = Array.tabulate(numWorkers)(new FOp(_))

  // Frontier information circulates with a small lag before S reacts; one
  // pending wakeup coalesces all advances inside the lag window.
  private var wakeupPending = false
  main.onAdvance { _ =>
    if (!wakeupPending) {
      wakeupPending = true
      sim.at(sim.now + cost.progressLagNs) {
        wakeupPending = false
        sOps.foreach(_.tryApply())
      }
    }
  }
  control.onAdvance(f => fOps.foreach(_.onControlAdvance(f)))

  // -------------------------------------------------------------- migration

  /** Record of one bin movement, for tests and accounting. */
  final case class Migration(time: Long, bin: Int, from: Int, to: Int)
  val migrationLog = mutable.ArrayBuffer.empty[Migration]

  /** Engine-global insertion counter for post-dated records (FIFO ties). */
  private var notifySeq = 0L

  /** Ingest one configuration update (time, bin, worker). The simulation
    * keeps one shared routing table (§3.5: "although each F maintains its own
    * routing table … we present one for clarity").
    */
  private def ingestUpdate(t: Long, bin: Int, newWorker: Int): Unit = {
    val oldWorker = currentOwner(bin)
    var h         = history(bin)
    if (h == null) { h = new java.util.TreeMap[Long, Int](); history(bin) = h }
    else require(t >= h.lastKey, s"configuration update for bin $bin at $t precedes its update at ${h.lastKey}")
    h.put(t, newWorker)
    if (oldWorker != newWorker) {
      migrationLog += Migration(t, bin, oldWorker, newWorker)
      // F at the current owner anticipates the migration: hold t on `main`
      // until the state message is delivered, and on `probe` until installed.
      holdBoth(t)
      // Initiate once the configuration is final (control frontier passed t)
      // and S's output frontier reached t, i.e. all updates strictly before
      // t are absorbed (§3.4).
      control.whenPassed(t) {
        probe.whenPassed(t - 1)(initiate(t, bin, oldWorker, newWorker))
      }
    }
  }

  private def initiate(t: Long, binId: Int, from: Int, to: Int): Unit = {
    // Uninstall the bin's state from its current S (via the shared pointer of
    // §4.2), serialize it, and ship it to the new owner bearing timestamp t.
    val bin   = sOps(from).uninstall(binId)
    val bytes = math.max(1L, bin.sizeBytes)
    workers(from).exec((bytes * cost.serializeNsPerByte).toLong) { _ =>
      net.send(from, to, bytes) { _ =>
        main.release(t) // delivered: S's input frontier may pass t
        workers(to).exec((bytes * cost.deserializeNsPerByte).toLong) { _ =>
          sOps(to).install(t, bin)
        }
      }
    }
  }

  // ----------------------------------------------------------------- inputs

  /** An input's capability, held on `trackers` from time 0 until `close`. */
  sealed abstract class Input(trackers: Tracker*) {
    private var cap  = 0L
    private var open = true
    trackers.foreach(_.hold(cap))

    def capability: Long = cap

    protected def admit(t: Long): Unit =
      require(open && t >= cap, s"send at $t behind capability $cap (open=$open)")

    /** Downgrade the capability; a no-op when `t` is already reached. */
    def advanceTo(t: Long): Unit = if (open && t > cap) { trackers.foreach(_.downgrade(cap, t)); cap = t }

    def close(): Unit = if (open) { open = false; trackers.foreach(_.release(cap)) }
  }

  /** Open-loop data input. Call `send` with nondecreasing times, then
    * `advanceTo` to let the epoch become applicable; `close` when done.
    */
  final class DataInput extends Input(main, probe) {
    def send(w: Int, t: Long, recs: Seq[Rec[K, V]]): Unit = {
      admit(t)
      holdBoth(t)
      fOps(w).receive(t, recs)
    }
  }

  /** Configuration-update input (the paper's control stream). Updates of
    * one bin must come in nondecreasing time order.
    */
  final class ControlInput extends Input(control) {
    def send(t: Long, updates: Seq[(Int, Int)]): Unit = {
      admit(t)
      updates.foreach { case (bin, w) => ingestUpdate(t, bin, w) }
    }
  }

  val dataInput    = new DataInput
  val controlInput = new ControlInput

  // ------------------------------------------------------------------ noise

  /** Deterministic scheduling noise: per-worker hiccups with exponential
    * inter-arrival times and durations, until `horizonNs` or [[stopNoise]].
    */
  private var noiseStopped = false

  def stopNoise(): Unit = noiseStopped = true

  def enableNoise(horizonNs: Long): Unit = {
    if (cost.hiccupEveryNs <= 0 || cost.hiccupNs <= 0) return
    val rng = new scala.util.Random(noiseSeed)
    workers.foreach { w =>
      def next(from: Long): Unit = {
        val gap = (-math.log(1.0 - rng.nextDouble()) * cost.hiccupEveryNs).toLong
        val at  = from + math.max(1L, gap)
        if (at < horizonNs) sim.at(at) {
          if (!noiseStopped) {
            w.stall(math.max(1L, (-math.log(1.0 - rng.nextDouble()) * cost.hiccupNs).toLong))
            next(at)
          }
        }
      }
      next(rng.between(1L, cost.hiccupEveryNs + 1))
    }
  }
}
