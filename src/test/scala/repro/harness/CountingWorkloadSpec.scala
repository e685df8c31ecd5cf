package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class CountingWorkloadSpec extends AnyFunSuite {

  private def cfg(bins: Int = 64, native: Boolean = false) = CountingWorkload.Config(
    workers = 4,
    bins = bins,
    domain = 1_000_000L,
    ratePerSec = 1_000_000L,
    cost = CostModel.keyCount.copy(hiccupEveryNs = 0),
    native = native,
  )

  test("steady run records one latency sample per injected record") {
    val res = CountingWorkload.run(cfg(), totalNs = 2_000_000_000L, strategy = None)
    // 1e6 rec/s for 2 s (dispatch covers all epochs before the horizon).
    assert(math.abs(res.hist.count - 2_000_000.0) < 10_000.0)
  }

  test("latencies are bounded and positive in an unloaded steady state") {
    val res = CountingWorkload.run(cfg(), totalNs = 2_000_000_000L, strategy = None)
    assert(res.hist.percentile(0.5) > 0)
    assert(res.hist.max < 50_000_000L, s"max=${res.hist.max}")
  }

  test("native mode reduces the p90 latency versus 2^16 bins") {
    val mega   = CountingWorkload.run(cfg(bins = 1 << 16), 2_000_000_000L, None)
    val native = CountingWorkload.run(cfg(native = true), 2_000_000_000L, None)
    assert(native.hist.percentile(0.9) < mega.hist.percentile(0.9))
  }

  test("migration runs report two completed migrations with durations") {
    val res = CountingWorkload.run(cfg(), totalNs = 6_000_000_000L, strategy = Some(AllAtOnce))
    assert(res.migrations.size == 2)
    res.migrations.foreach { m =>
      assert(m.durationNs > 0 && m.endNs > m.startNs)
      assert(m.strategy == "all-at-once")
    }
    assert(res.migrations(1).startNs >= res.migrations(0).endNs)
  }

  test("all-at-once spikes above steady state; fluid stays near it") {
    val big = cfg(bins = 1024).copy(domain = 512L * 1000 * 1000) // 4 GB, 4 MB/bin
    val a   = CountingWorkload.run(big, 6_000_000_000L, Some(AllAtOnce))
    val f   = CountingWorkload.run(big, 6_000_000_000L, Some(Fluid()))
    val aMax = a.migrations(1).maxLatencyNs
    val fMax = f.migrations(1).maxLatencyNs
    assert(aMax > 10 * fMax, s"all-at-once $aMax should dwarf fluid $fMax")
    assert(aMax > 5 * a.steadyMaxLatencyNs)
  }

  test("fluid migration takes longer than all-at-once but moves the same bins") {
    val big = cfg(bins = 1024).copy(domain = 512L * 1000 * 1000)
    val a   = CountingWorkload.run(big, 6_000_000_000L, Some(AllAtOnce))
    val f   = CountingWorkload.run(big, 6_000_000_000L, Some(Fluid()))
    assert(f.migrations(1).durationNs > a.migrations(1).durationNs)
  }

  test("memory samples capture the all-at-once in-flight spike") {
    val big = cfg(bins = 1024).copy(domain = 512L * 1000 * 1000)
    val res = CountingWorkload.run(big, 6_000_000_000L, Some(AllAtOnce), memSampleEveryNs = 50_000_000L)
    assert(res.memSamples.nonEmpty)
    val peakInflight = res.memSamples.map(_._3).max
    assert(peakInflight > 0, "the migration must put serialized state in flight")
  }

  test("fluid in-flight stays far below all-at-once in-flight") {
    val big = cfg(bins = 1024).copy(domain = 512L * 1000 * 1000)
    val a = CountingWorkload.run(big, 6_000_000_000L, Some(AllAtOnce), memSampleEveryNs = 20_000_000L)
    val f = CountingWorkload.run(big, 6_000_000_000L, Some(Fluid()), memSampleEveryNs = 20_000_000L)
    // All-at-once queues many serialized bins at the NIC at once; fluid keeps
    // at most one bin in flight (sampled every 20 ms, so peaks are inexact).
    assert(a.memSamples.map(_._3).max > 2 * math.max(1L, f.memSamples.map(_._3).max))
  }

  test("state bytes are conserved across migrations") {
    val res = CountingWorkload.run(cfg(), 6_000_000_000L, Some(Batched(8)))
    assert(res.migrations.size == 2) // completing both implies no bin was lost
  }

  test("a fluid migration under scheduling noise keeps its exact simulated schedule") {
    // Figures of this run as first recorded; a change that moves a single
    // simulated event (routing, progress, noise) shifts at least one of them.
    val res = CountingWorkload.run(
      cfg(bins = 256).copy(domain = 256_000_000L, cost = CostModel.keyCount), 3_000_000_000L, Some(Fluid()))
    assert(res.hist.count == 6865000.0)
    assert(res.hist.percentile(0.5) == 9437183L)
    assert(res.hist.percentile(0.9999) == 44040191L)
    assert(res.steadyMaxLatencyNs == 6610354L)
    assert(res.migrations.map(m => (m.startNs, m.endNs, m.maxLatencyNs)) ==
      Seq((1000000000L, 3472538930L, 44444209L), (3972538930L, 6364884298L, 40769853L)))
  }

  test("throughput saturation raises latency (overload shape of Fig 19)") {
    val lo = CountingWorkload.run(cfg(), 2_000_000_000L, None)
    val hi = CountingWorkload.run(cfg().copy(ratePerSec = 200_000_000L), 2_000_000_000L, None)
    assert(hi.hist.percentile(0.9) > 10 * lo.hist.percentile(0.9))
  }
}

class Table1LocSpec extends AnyFunSuite {
  import repro.exp.Table1Loc

  test("marker regions exist for all eight queries in both variants") {
    val rows = Table1Loc.rows()
    assert(rows.map(_.q) == (1 to 8))
    rows.foreach(r => assert(r.native > 0 && r.megaphone > 0))
  }

  test("stateless queries are small in both implementations") {
    val rows = Table1Loc.rows()
    assert(rows(0).native <= 20 && rows(0).megaphone <= 20)
    assert(rows(1).native <= 20 && rows(1).megaphone <= 20)
  }

  test("Q4 and Q6 native are substantially larger than Q1 native (stateful machinery)") {
    val rows = Table1Loc.rows()
    assert(rows(3).native > 2 * rows(0).native)
  }

  test("counter ignores blank and comment lines") {
    val lines = Seq("// Q9-test-begin", "a", "", "  // c", "  /* d */", " b ", "// Q9-test-end")
    assert(Table1Loc.count(lines, 9, "test") == 2)
  }
}
