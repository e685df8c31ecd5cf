package repro.harness

/** Interpolated quantiles of a [[LatencyHistogram]], for the benchmark.
  *
  * `percentile` returns bucket upper edges, which step by ~4% and would read
  * identically across runs. This reads the CCDF rows instead and assumes the
  * mass is spread uniformly inside a bucket (as `addRange` spreads it), so
  * the result keeps the digits the data carries. It sits in this package to
  * share the histogram's own bucket layout.
  */
object HistQuantile {
  def ns(h: LatencyHistogram, q: Double): Double = {
    val rows = h.ccdf
    require(rows.nonEmpty, "empty histogram")
    var i = 0
    while (i < rows.length) {
      val (upper, ccdfHere) = rows(i)
      val ccdfNext          = if (i + 1 < rows.length) rows(i + 1)._2 else 0.0
      if (1.0 - ccdfNext >= q) {
        val lo   = LatencyHistogram.bucketLow(LatencyHistogram.bucketOf(upper)).toDouble
        val frac = if (ccdfHere > ccdfNext) (q - (1.0 - ccdfHere)) / (ccdfHere - ccdfNext) else 1.0
        val v    = lo + math.max(0.0, math.min(1.0, frac)) * (upper + 1 - lo)
        return math.min(v, h.max.toDouble)
      }
      i += 1
    }
    h.max.toDouble
  }
}
