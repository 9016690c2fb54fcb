package repro.perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}

import repro.core.{TEL, TemporalEdge}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      [--data-seed <n>] --digests <digests.tsv> --trace-dir <dir>
  * Main --record <digests.tsv>
  * Main --self-test --digests <digests.tsv>
  * }}}
  *
  * One process, one closed-loop client. The last line of standard output is
  * the JSON result: end-to-end metrics with `--trace 0`, per-layer metrics
  * (from a traced run) with `--trace 1`.
  */
object Main {
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 9
  /** Warm replays of the masters' appends behind `ingest_edges_per_s` on
    * workloads that append only in set-up.
    */
  val IngestReps = 5
  val IngestSeconds = 1.5
  /** Minimum timed passes when a pass mixes several queries. `query_tail_ms`
    * is the 11th-largest latency; with at least 11 samples of each query it
    * falls inside the slowest query's samples, not on the boundary between
    * two queries, where it would jump with the number of passes.
    */
  val MixedPasses = 11
  /** Minimum warm-up before timing, beyond one full pass. */
  val WarmupSeconds = 2.0

  final case class Metric(name: String, value: Double, unit: String)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    if (args.contains("--self-test")) sys.exit(SelfTest.run(new File(opts("digests"))))
    if (opts.contains("record")) { record(new File(opts("record"))); return }
    val w = Workload(opts("workload"), opts.getOrElse("data-seed", "0").toLong, opts("seed").toLong)
    val seconds = opts("seconds").toDouble
    val (correct, m, metrics) =
      if (opts("trace") == "1") traced(w, seconds, new File(opts("digests")), new File(opts("trace-dir")))
      else endToEnd(w, seconds, new File(opts("digests")))
    m.errors.take(8).foreach { case (msg, n) => println(s"failed x$n: $msg") }
    metrics.foreach(mt => println(f"${mt.name}%-22s ${mt.value}%14.4f ${mt.unit}"))
    val undefined = metrics.filterNot(_.value.isFinite).map(_.name)
    if (undefined.nonEmpty) {
      System.err.println(s"undefined metrics: ${undefined.mkString(", ")}")
      sys.exit(1)
    }
    println(json(correct && m.mismatched == 0, m.attempted, m.failed, metrics))
  }

  private def expected(w: Workload, digests: File): Map[String, Expect] =
    if (w.dataSeed == 0) Recorded.load(digests, w.name) else w.reference()

  /** Appends each edge array to a fresh TEL through `run`. */
  private def replay(masters: Seq[Array[TemporalEdge]], run: Runner): Unit =
    masters.foreach(es => run.append(TEL.empty(), es, 0, es.length))

  /** Runs whole passes until `seconds` have elapsed and at least
    * `minPasses` passes have run.
    *
    * Before each pass, off the clock, the previous pass's answers are dropped
    * and a full GC runs. Otherwise the dead answers of one pass (about 1 GB on
    * `youtube-scan`) fill the old generation and force a full GC in the
    * middle of a later query, while its own answer is live, at a point that
    * varies from run to run. The collections a query's own allocations cause
    * stay on its clock.
    */
  private def runPasses(w: Workload, m: Measure, rnd: Random, seconds: Double, minPasses: Int = 1): Int = {
    val t0 = System.nanoTime()
    var passes = 0
    while (passes < minPasses || System.nanoTime() - t0 < seconds * 1e9) {
      m.answers.clear()
      System.gc()
      w.pass(rnd, m)
      passes += 1
    }
    passes
  }

  private def prepare(w: Workload, digests: File): (Vector[SetupTimes], Map[String, Expect], Random, Boolean) = {
    val setups = Vector.fill(SetupReps)(w.setup())
    val expect = expected(w, digests)
    val rnd = new Random(w.seed)
    val warm = new Measure(expect, None)
    runPasses(w, warm, rnd, WarmupSeconds)
    (setups, expect, rnd, warm.mismatched == 0)
  }

  /** Live heap: what the heap pools hold right after a full collection.
    * Current usage would also count the allocation buffer the thread takes
    * right after the collection, up to tens of MB depending on timing.
    */
  private def liveHeap(): Long = {
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
      .map(_.getCollectionUsage.getUsed).sum
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest percentile with 10 samples above it: the 11th-largest
    * sample, at percentile 100 (n - 10) / n. The maximum when there are
    * fewer than 20 samples, where that percentile would lie below the
    * median. Returns (percentile, value).
    */
  def tail(samples: Seq[Long]): (Double, Long) = {
    val s = samples.sorted
    val n = s.size
    if (n < 20) (100.0, s.last) else (100.0 * (n - 10) / n, s(n - 11))
  }

  private def endToEnd(w: Workload, seconds: Double, digests: File): (Boolean, Measure, Vector[Metric]) = {
    val before = liveHeap()
    val (setups, expect, rnd, warmOk) = prepare(w, digests)
    val m = new Measure(expect, None)
    val passes = runPasses(w, m, rnd, seconds, if (w.queriesPerPass > 1) MixedPasses else 1)
    val retained = liveHeap() - before
    m.answers.clear()

    println("per-query median ms: " + m.byQuery.toVector.sortBy(_._1).map { case (id, ns) =>
      f"$id=${median(ns.map(_ / 1e6))}%.1f" }.mkString(" "))
    val lat = m.latenciesNs.toVector
    val (tailPct, tailNs) = tail(lat)
    println(f"${w.name}: $passes passes, ${m.attempted} queries, ${lat.size} answered; " +
      f"query_tail_ms is p$tailPct%.1f of ${lat.size} samples")
    val ingest = if (m.appended > 0) m.appended / (m.appendNs / 1e9) else {
      // Appends run only in set-up here: time them warm, replaying the
      // masters' edges into fresh TELs.
      val masters = w.masterEdges()
      val rates = mutable.ArrayBuffer.empty[Double]
      val t0 = System.nanoTime()
      while (rates.size < IngestReps || System.nanoTime() - t0 < IngestSeconds * 1e9) {
        System.gc()
        val r = new Measure(Map.empty, None)
        replay(masters, r)
        rates += r.appended / (r.appendNs / 1e9)
      }
      median(rates.toVector)
    }
    (warmOk, m, Vector(
      Metric("query_p50_ms", median(lat.map(_.toDouble)) / 1e6, "ms"),
      Metric("query_tail_ms", tailNs / 1e6, "ms"),
      Metric("queries_per_s", m.answered / (m.busyNs / 1e9), "1/s"),
      Metric("cores_per_s", m.cores / (m.queryNs / 1e9), "1/s"),
      Metric("ingest_edges_per_s", ingest, "1/s"),
      Metric("setup_s", median(setups.map(_.totalS)), "s"),
      Metric("retained_mb", retained / 1e6, "MB"),
      Metric("answered_frac", m.answered.toDouble / m.attempted, "fraction")))
  }

  private def traced(w: Workload, seconds: Double, digests: File, traceDir: File): (Boolean, Measure, Vector[Metric]) = {
    val (setups, expect, rnd, warmOk) = prepare(w, digests)
    // Untraced and traced passes alternate, so both see the same machine
    // state and their difference is the tracing overhead.
    val plain = new Measure(expect, None)
    val tracer = new Tracer
    val m = new Measure(expect, Some(tracer))
    val t0 = System.nanoTime()
    var passes = 0
    while (passes == 0 || System.nanoTime() - t0 < seconds * 1e9) {
      for (x <- Seq(plain, m)) {
        plain.answers.clear() // the other side's answers would crowd this pass's heap
        m.answers.clear()
        runPasses(w, x, rnd, 0)
      }
      passes += 1
    }
    val buildTracer = new Tracer
    replay(w.masterEdges(), new Measure(Map.empty, Some(buildTracer)))

    val b = Breakdown.of(tracer.spans)
    val setupAppends = Breakdown.of(buildTracer.spans)
    val file = new File(traceDir, s"${w.name}-seed${w.seed}.tsv")
    tracer.spans ++= buildTracer.spans
    tracer.write(file)
    println(s"${w.name}: $passes untraced and $passes traced passes; ${b.queries} query spans; " +
      s"spans in $file; worst child-span excess over its query ${b.worstUnaccountedNs} ns")

    def perPass(name: String, v: Map[String, Double]) = v.getOrElse(name, 0.0) / passes
    def countPerPass(name: String, v: Map[String, Long]) = v.getOrElse(name, 0L).toDouble / passes
    val tels = w.tels
    // Appends run inside the pass on `stream`; elsewhere only in set-up.
    val addMs = if (m.appended > 0) perPass("add_edge", b.ms) else setupAppends.ms.getOrElse("add_edge", 0.0)
    val addCalls =
      if (m.appended > 0) m.appended.toDouble / passes
      else -setupAppends.edgesRemoved.getOrElse("add_edge", 0L).toDouble
    val buildMs = if (m.appended > 0) plain.appendNs / 1e6 / passes else median(setups.map(_.buildMs))
    val s = m.stats
    (warmOk && b.worstUnaccountedNs <= 0, m, Vector(
      Metric("graphgen.generate_ms", median(setups.map(_.generateMs)), "ms"),
      Metric("tel.build_ms", buildMs, "ms"),
      Metric("tel.bytes_per_edge",
        tels.map(_.memoryFootprintBytes).sum.toDouble / tels.map(_.numAliveEdges.toLong).sum, "B/edge"),
      Metric("tel.copy_range_ms", perPass("initial", b.ms), "ms"),
      Metric("tel.copy_ms", perPass("copyState", b.ms), "ms"),
      Metric("tel.copy_calls", countPerPass("copyState", b.calls), "count"),
      Metric("tel.copy_edges", countPerPass("copyState", b.edgesIn), "count"),
      Metric("tel.truncate_ms", perPass("truncate", b.ms), "ms"),
      Metric("tel.truncate_edges", countPerPass("truncate", b.edgesRemoved), "count"),
      Metric("tel.decompose_ms", perPass("decompose", b.ms), "ms"),
      Metric("tel.decompose_edges", countPerPass("decompose", b.edgesRemoved), "count"),
      Metric("tel.snapshot_ms", perPass("snapshot", b.ms), "ms"),
      Metric("tel.snapshot_calls", countPerPass("snapshot", b.calls), "count"),
      Metric("tel.snapshot_edges", countPerPass("snapshot", b.edgesIn), "count"),
      Metric("tel.add_edge_ms", addMs, "ms"),
      Metric("tel.add_edge_calls", addCalls, "count"),
      Metric("tcq.query_ms", perPass("query", b.ms), "ms"),
      Metric("tcq.self_ms", b.selfMs / passes, "ms"),
      Metric("tcq.cells_visited", s.cellsVisited.toDouble / passes, "count"),
      Metric("tcq.cores_induced", s.inducedCores.toDouble / passes, "count"),
      Metric("tcq.duplicates", s.duplicateCores.toDouble / passes, "count"),
      Metric("tcq.cells_pruned", s.prunedTotal.toDouble / passes, "count"),
      Metric("tcq.cores_per_visit", m.cores.toDouble / s.cellsVisited, "ratio"),
      Metric("trace.overhead_pct",
        100 * (m.busyNs.toDouble / plain.busyNs - 1), "%")))
  }

  /** Records `digests.tsv` from the default data, after checking every OTCD
    * answer against the TCD reference (the span-guarded queries of
    * `sparse-ts` take their digest from the reference).
    */
  private def record(file: File): Unit = {
    val rows = Workload.Names.flatMap { name =>
      val w = Workload(name, 0, 0)
      w.setup()
      val ref = w.reference()
      Workload.answers(w).sortBy(_._1.id).map { case (q, otcd) =>
        val id = q.id
        val key = (otcd.map(Digest.of), ref(id)) match {
          case (Some(d), r) if r.accepts(d) => d.key
          case (None, Expect.Exactly(k)) => k
          case _ => sys.error(s"$name $id: OTCD and TCD disagree")
        }
        println(s"$name\t$id\t$key")
        (name, id, key)
      }
    }
    Recorded.write(file, rows)
  }

  private def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""").mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }
}
