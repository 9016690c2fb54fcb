package repro.perfbench

import java.io.File

import repro.graphgen.Datasets

import scala.util.Random

/** The benchmark's own tests; exits non-zero when one fails. */
object SelfTest {
  def run(digests: File): Int = {
    var failures = 0
    def check(name: String)(cond: => Boolean): Unit = {
      val ok = try cond catch { case e: Exception => println(s"  $e"); false }
      println(s"${if (ok) "ok  " else "FAIL"} $name")
      if (!ok) failures += 1
    }

    val selected = new Selected(0, 0)
    selected.setup()
    check("default data reproduces the Table 3 queries") {
      selected.specs.sortBy(_._1.drop(1).toInt) ==
        Datasets.selectedQueries.map(q => (s"q${q.id}", q.window, q.k))
    }

    val expectSelected = Recorded.load(digests, "selected")
    val answers = Workload.answers(selected)
    val (q1, Some(r1)) = answers.find(_._1.id == "q1").get: @unchecked
    val d = Digest.of(r1)
    val expect = expectSelected("q1")
    check("checker accepts the recorded answer of every selected query") {
      answers.forall { case (q, r) => r.exists(a => expectSelected(q.id).accepts(Digest.of(a))) }
    }
    check("checker rejects a dropped core")(!expect.accepts(Digest(d.cores.tail)))
    check("checker rejects a shifted TTI") {
      !expect.accepts(Digest(d.cores.updated(0, d.cores(0).copy(te = d.cores(0).te + 1))))
    }
    check("checker rejects a core with a wrong |E|") {
      !expect.accepts(Digest(d.cores.updated(0, d.cores(0).copy(edges = d.cores(0).edges - 1))))
    }
    check("checker rejects an answer checked against sub-windows that lacks a core") {
      val w = q1.window
      val sub = Expect.OnSubWindows(Vector(w -> d))
      sub.accepts(d) && !sub.accepts(Digest(d.cores.init))
    }
    check("a mismatched answer counts as failed, not answered") {
      val m = new Measure(Map("q1" -> Expect.Exactly(Digest(d.cores.tail).key)), None)
      m.ask(q1)
      m.attempted == 1 && m.failed == 1 && m.mismatched == 1 && m.latenciesNs.isEmpty
    }

    val sparse = new SparseTs(0, 0)
    sparse.setup()
    check("sparse-ts attempts every x720 query and counts span-guard failures") {
      val m = new Measure(Recorded.load(digests, "sparse-ts"), None)
      sparse.pass(new Random(0), m)
      val ids = m.answers.keySet ++ m.errors.keys.map(_.takeWhile(_ != ':'))
      val guarded = m.errors.keys.count(_.contains("too large"))
      println(s"  ${m.attempted} attempted, ${m.failed} failed ($guarded at the span guard)")
      m.attempted == 8 && ids.size == 8 && ids.count(_.endsWith("x720")) == 4 &&
        m.mismatched == 0 && m.failed == guarded && m.answers.keySet.forall(_.endsWith("x60"))
    }

    check("child spans and tcq self time account for every query span") {
      val tracer = new Tracer
      val m = new Measure(expectSelected, Some(tracer))
      selected.pass(new Random(1), m)
      val b = Breakdown.of(tracer.spans)
      val children = Breakdown.Layers.map(b.ms.getOrElse(_, 0.0)).sum
      b.queries == 20 && m.failed == 0 && b.worstUnaccountedNs <= 0 && b.selfMs >= 0 &&
        math.abs(children + b.selfMs - b.ms("query")) < 1e-6 &&
        Breakdown.Layers.forall(b.calls.contains) &&
        tracer.spans.filter(_.name != "query").forall(_.queryId >= 0)
    }

    println(if (failures == 0) "all self-tests passed" else s"$failures self-test(s) failed")
    if (failures == 0) 0 else 1
  }
}
