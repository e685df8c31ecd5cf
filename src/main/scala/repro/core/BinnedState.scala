package repro.core

import scala.collection.mutable

/** A weighted record: `weight > 1` lets the counting benchmarks drive the
  * engine at the paper's full rates (4×10⁶ rec/s × minutes) without allocating
  * one object per record — the cost model charges `weight × perRecordNs` and
  * the histogram receives `weight` samples. Correctness tests use weight 1.
  */
final case class Rec[K, V](key: K, value: V, weight: Long = 1L)

/** User logic hosted by the S operator, the `fold` of Listing 1.
  *
  * The logic is data-parallel and functional in the §3.2 sense: for each key,
  * values are applied in timestamp order to per-key state; the logic may emit
  * outputs and schedule post-dated records for its own key via `notify`.
  */
trait BinLogic[K, V, O] {

  /** Per-key state. */
  type St

  def init(key: K): St

  /** Apply one (possibly weighted) record at `time`.
    *
    * @param out    emit an output (attributed the record's completion time)
    * @param notify schedule a post-dated record `(t', rec)` with `t' > time`
    */
  def fold(time: Long, rec: Rec[K, V], state: St, out: O => Unit, notify: (Long, Rec[K, V]) => Unit): St

  /** Serialized size of one key's state, for migration cost accounting. */
  def stateBytes(state: St): Long = 64L
}

/** The extended notificator of §4.3: pending `(time, key, val)` triples in a
  * priority queue, replayable for times not in advance of a frontier, and
  * migrateable alongside its bin's state.
  */
final class Notificator[K, V] {
  private implicit val ord: Ordering[(Long, Long, Rec[K, V])] =
    Ordering.by[(Long, Long, Rec[K, V]), (Long, Long)](e => (-e._1, -e._2))
  private val queue = mutable.PriorityQueue.empty[(Long, Long, Rec[K, V])]

  /** Schedule a post-dated record; `seq` breaks timestamp ties FIFO so that
    * replay order is deterministic (engine-global insertion order).
    */
  def schedule(t: Long, rec: Rec[K, V], seq: Long = 0L): Unit = queue.enqueue((t, seq, rec))

  def isEmpty: Boolean = queue.isEmpty
  def size: Int        = queue.size
  def minTime: Long    = if (queue.isEmpty) Long.MaxValue else queue.head._1

  /** Remove and return all triples with time strictly below `frontier`, in
    * (timestamp, insertion) order.
    */
  def drain(frontier: Long): Seq[(Long, Long, Rec[K, V])] = {
    val out = mutable.ArrayBuffer.empty[(Long, Long, Rec[K, V])]
    while (queue.nonEmpty && queue.head._1 < frontier) out += queue.dequeue()
    out.toSeq
  }
}

/** One bin: a group of keys' states plus the bin's pending post-dated records.
  * This is the unit of migration.
  */
final class Bin[K, V, O](val id: Int, val logic: BinLogic[K, V, O]) {
  val states: mutable.HashMap[K, logic.St] = mutable.HashMap.empty
  val pending = new Notificator[K, V]

  /** Extra bytes this bin represents beyond live `states` entries — used by
    * the aggregate-mode benchmarks, where key counts are modelled, not stored.
    */
  var modeledBytes: Long = 0L

  def sizeBytes: Long =
    modeledBytes + states.valuesIterator.map(logic.stateBytes).sum + 64L * pending.size

  def apply(time: Long, rec: Rec[K, V], out: O => Unit, notify: (Long, Rec[K, V]) => Unit): Unit = {
    val st  = states.getOrElseUpdate(rec.key, logic.init(rec.key))
    val st2 = logic.fold(time, rec, st, out, notify)
    states(rec.key) = st2
  }
}
