package repro.timely

import scala.collection.mutable

/** Pointstamp-count progress tracking for totally ordered (`Long`) timestamps.
  *
  * A [[Tracker]] maintains the multiset of outstanding pointstamps on one
  * dataflow edge: message holds (in-flight records) plus capability holds
  * (operators that may still produce output at a time). The frontier is the
  * minimum outstanding timestamp, mirroring Naiad's progress protocol
  * specialised to a total order — Definition 1 of the paper collapses to a
  * single watermark in this case.
  *
  * Listeners registered with [[onAdvance]] fire whenever the frontier strictly
  * advances; this is the passive coordination Megaphone's F operators use to
  * gate migrations on the output frontier of S.
  */
final class Tracker(val name: String) {
  private val counts    = new java.util.TreeMap[Long, Long]()
  private var listeners = List.empty[Long => Unit]
  private val waiters   = new java.util.TreeMap[Long, List[() => Unit]]()
  private var notifying = false

  /** Current frontier: least outstanding pointstamp, or `Long.MaxValue` when
    * the edge is drained (no message can ever arrive again).
    */
  def frontier: Long = if (counts.isEmpty) Long.MaxValue else counts.firstKey()

  /** Register interest in frontier advances. Fired with the new frontier. */
  def onAdvance(f: Long => Unit): Unit = listeners ::= f

  /** Hold `n` pointstamps at time `t` (a message send or a capability). */
  def hold(t: Long, n: Long = 1L): Unit = {
    require(n > 0, s"hold of $n at $t")
    counts.merge(t, n, (a, b) => a + b)
  }

  /** Release `n` pointstamps at `t`; fires listeners if the frontier moved. */
  def release(t: Long, n: Long = 1L): Unit = {
    val pre  = frontier
    val left = counts.merge(t, -n, (a, b) => a + b)
    require(left >= 0, s"tracker $name: negative count at $t")
    if (left == 0) counts.remove(t)
    maybeNotify(pre)
  }

  /** Atomically hold at `to` then release at `from` — a capability downgrade
    * that can never transiently empty the tracker.
    */
  def downgrade(from: Long, to: Long, n: Long = 1L): Unit = {
    require(to >= from, s"tracker $name: downgrade $from -> $to goes backwards")
    hold(to, n)
    release(from, n)
  }

  /** True when all work at times ≤ `t` is done (frontier strictly beyond). */
  def passed(t: Long): Boolean = frontier > t

  /** Run `action` once the frontier strictly passes `t` (maybe immediately). */
  def whenPassed(t: Long)(action: => Unit): Unit = {
    if (passed(t)) action
    else waiters.merge(t, List(() => action), (a, b) => b ::: a)
  }

  private def maybeNotify(pre: Long): Unit = {
    if (notifying) return // listeners re-entering will observe the final state
    notifying = true
    try {
      var prev = pre
      var f    = frontier
      while (f > prev) {
        prev = f
        // Listeners may register more listeners or move pointstamps.
        listeners.foreach(_(f))
        // Waiters may hold new (earlier) pointstamps while running — always
        // compare against the *live* frontier, never the snapshot.
        while (!waiters.isEmpty && waiters.firstKey() < frontier) {
          val e = waiters.pollFirstEntry()
          e.getValue.reverse.foreach(_())
        }
        f = frontier
      }
    } finally notifying = false
  }
}
