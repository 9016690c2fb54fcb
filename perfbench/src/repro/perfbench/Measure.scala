package repro.perfbench

import repro.core._

import scala.collection.mutable

/** A closed-loop client: issues each operation, waits for it, times it and,
  * outside the timed region, checks every answer against `expect`. With a
  * tracer every query runs through a [[TracingEngine]].
  */
final class Measure(expect: Map[String, Expect], tracer: Option[Tracer]) extends Runner {
  var attempted = 0L
  var failed = 0L
  var mismatched = 0L
  var queryNs = 0L
  var appendNs = 0L
  var appended = 0L
  var cores = 0L
  var stats: RunStats = RunStats()
  val latenciesNs: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  val byQuery: mutable.Map[String, Vector[Long]] = mutable.Map.empty
  /** Latest answer per query, kept referenced so `retained_mb` sees them. */
  val answers: mutable.Map[String, TCQResult] = mutable.Map.empty
  val errors: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty

  def busyNs: Long = queryNs + appendNs
  def answered: Long = attempted - failed

  private def run(q: Query): TCQResult = tracer match {
    case Some(t) => t.query(OTCD.run(new TracingEngine(q.engine, t), q.k, q.window))
    case None => OTCD.run(q.engine, q.k, q.window)
  }

  def ask(q: Query): Unit = {
    answers.remove(q.id)
    attempted += 1
    val t0 = System.nanoTime()
    val result = try Right(run(q)) catch { case e: Exception => Left(e) }
    val ns = System.nanoTime() - t0
    queryNs += ns
    result match {
      case Left(e) => fail(s"${q.id}: ${e.getClass.getSimpleName}: ${e.getMessage}")
      case Right(r) if !expect.get(q.id).exists(_.accepts(Digest.of(r))) =>
        mismatched += 1
        fail(s"${q.id}: answer (${r.count} cores) does not match the expected digest")
      case Right(r) =>
        latenciesNs += ns
        byQuery(q.id) = byQuery.getOrElse(q.id, Vector.empty) :+ ns
        cores += r.count
        answers(q.id) = r
        stats = Measure.plus(stats, r.stats)
    }
  }

  private def fail(msg: String): Unit = {
    failed += 1
    errors(msg) = errors.getOrElse(msg, 0L) + 1
  }

  def append(tel: TEL, edges: Array[TemporalEdge], from: Int, until: Int): Unit = {
    def loop(): Unit = {
      var i = from
      while (i < until) { val e = edges(i); tel.addEdge(e.u, e.v, e.t); i += 1 }
    }
    val t0 = System.nanoTime()
    tracer match {
      case Some(t) => t.span("add_edge", tel.numAliveEdges, (_: Unit) => tel.numAliveEdges)(loop())
      case None => loop()
    }
    appendNs += System.nanoTime() - t0
    appended += until - from
  }
}

object Measure {
  def plus(a: RunStats, b: RunStats): RunStats = RunStats(
    a.inducedCores + b.inducedCores, a.duplicateCores + b.duplicateCores,
    a.cellsVisited + b.cellsVisited, a.totalCells + b.totalCells,
    a.prunedPoR + b.prunedPoR, a.prunedPoU + b.prunedPoU, a.prunedPoL + b.prunedPoL,
    a.triggersPoR + b.triggersPoR, a.triggersPoU + b.triggersPoU, a.triggersPoL + b.triggersPoL)
}
