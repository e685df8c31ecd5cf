package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One reported metric: a value as measured plus its unit. */
final case class Metric(value: Double, unit: String)

/** Ordered metric set; a name may be set once. */
final class Metrics {
  private val m = mutable.LinkedHashMap.empty[String, Metric]
  def update(name: String, valueAndUnit: (Double, String)): Unit = {
    val (value, unit) = valueAndUnit
    require(!m.contains(name), s"metric $name reported twice")
    require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
    m(name) = Metric(value, unit)
  }
  def toMap: collection.Map[String, Metric] = m
}

/** Outcome of the correctness gates of one workload run. */
final class Gates {
  var attempted = 0L
  var failed    = 0L
  private val notes = mutable.ArrayBuffer.empty[String]

  /** `n` results checked, `bad` of them wrong. */
  def check(name: String, n: Long, bad: Long): Unit = {
    attempted += n
    failed += math.min(n, bad)
    if (bad > 0) notes += s"$name: $bad of $n failed"
  }
  def ok(name: String, cond: Boolean): Unit = check(name, 1L, if (cond) 0L else 1L)
  def failures: Seq[String] = notes.toSeq
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }
}

/** Process-wide JVM counters, read at layer boundaries. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  final case class Snap(gcCount: Long, gcMs: Long, allocBytes: Long)

  /** Bytes allocated so far by every live thread (Spark runs tasks on
    * long-lived executor threads, so live threads cover the work).
    */
  private def allocated(): Long = {
    val ids = threads.getAllThreadIds
    threads.getThreadAllocatedBytes(ids).iterator.filter(_ > 0).sum
  }

  def snap(): Snap = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    Snap(gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum, allocated())
  }

  /** Heap in use after full collections, with `keep` still reachable. The
    * pauses let cleaner threads (Spark's ContextCleaner) release what the
    * previous collection made unreachable.
    */
  def liveHeapMiB(keep: AnyRef): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    var i   = 0
    while (i < 3) { System.gc(); Thread.sleep(300); i += 1 }
    System.gc()
    val used = mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    java.lang.ref.Reference.reachabilityFence(keep)
    used
  }
}

/** Tracing: spans around calls into each layer, kept in memory and written
  * as JSON lines when the run ends. Fine-grained calls (one per record) are
  * aggregated into [[Timer]]s instead of spans. Disabled, `span` only runs
  * its body.
  */
final class Tracer(var enabled: Boolean) {
  private final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long)
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]
  private var ids   = 0

  def span[A](name: String)(body: => A): A = if (!enabled) body else {
    ids += 1
    val id     = ids
    val parent = open.headOption.getOrElse(0)
    open ::= id
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, name, t0, System.nanoTime())
      open = open.tail
    }
  }

  def count: Int = spans.length

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val lines = spans.iterator.map(s =>
      s"""{"id":${s.id},"parent":${s.parent},"name":${Json.str(s.name)},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    java.nio.file.Files.write(path, lines.toSeq.asJava)
  }
}

/** Call count and time spent at one fine-grained layer boundary. */
final class Timer {
  var calls = 0L
  var ns    = 0L
  @inline def add(t0: Long): Unit = { calls += 1; ns += System.nanoTime() - t0 }
}

/** Wraps user logic hosted by S to count and time every `fold` call. The
  * time includes output callbacks the fold triggers.
  */
final class TimedLogic[K, V, O](val inner: repro.core.BinLogic[K, V, O], timer: Timer)
    extends repro.core.BinLogic[K, V, O] {
  type St = inner.St
  def init(key: K): St = inner.init(key)
  def fold(time: Long, rec: repro.core.Rec[K, V], state: St, out: O => Unit,
           notify: (Long, repro.core.Rec[K, V]) => Unit): St = {
    val t0 = System.nanoTime()
    val s  = inner.fold(time, rec, state, out, notify)
    timer.add(t0)
    s
  }
  override def stateBytes(state: St): Long = inner.stateBytes(state)
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    (b += '"').toString
  }

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
}

/** Short stable digest of a string, for fingerprints. */
object Digest {
  def of(s: String): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    md.digest(s.getBytes("UTF-8")).take(8).map(b => f"${b & 0xff}%02x").mkString
  }
}
