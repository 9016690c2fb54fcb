package repro.perfbench

import java.io.{File, PrintWriter}

import repro.core.{CoreEngine, CoreResult, CoreState, TELState}

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer.
  *
  * @param queryId id shared by a `query` span and every layer span it caused;
  *                -1 for spans outside a query (TEL appends)
  * @param edgesBefore / edgesAfter `numAliveEdges` of the TEL the call worked
  *                on, before and after the call
  */
final case class Span(queryId: Int, name: String, startNs: Long, endNs: Long,
    edgesBefore: Int, edgesAfter: Int) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder; spans are written out once, at the end of a run. */
final class Tracer {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty
  private var currentQuery = -1
  private var nextQuery = 0

  /** Runs `body` as one `query` span; layer spans recorded meanwhile are its
    * children.
    */
  def query[A](body: => A): A = {
    currentQuery = nextQuery
    nextQuery += 1
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(currentQuery, "query", t0, System.nanoTime(), 0, 0)
      currentQuery = -1
    }
  }

  def span[A](name: String, edgesBefore: Int, edgesAfter: A => Int)(body: => A): A = {
    val t0 = System.nanoTime()
    val a = body
    val t1 = System.nanoTime()
    spans += Span(currentQuery, name, t0, t1, edgesBefore, edgesAfter(a))
    a
  }

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try {
      out.println("query_id\tname\tstart_ns\tend_ns\tedges_before\tedges_after")
      spans.foreach(s => out.println(
        s"${s.queryId}\t${s.name}\t${s.startNs}\t${s.endNs}\t${s.edgesBefore}\t${s.edgesAfter}"))
    } finally out.close()
  }
}

/** Decorator on the seam between the TCQ driver and the TEL: one span per
  * `initial` (the row source, `TEL.copyRange`), `copyState` (`TEL.copy`),
  * `truncate`, `decompose` and `snapshot` call.
  *
  * The seam is `CoreEngine`/`CoreState`. If that indirection is folded away
  * (so `TCQ.run` works on a `TEL` directly), the program must keep an
  * equivalent hook or record these spans itself, or this decorator has
  * nothing to wrap.
  */
final class TracingEngine(inner: CoreEngine, tracer: Tracer) extends CoreEngine {
  override def initial(ts: Int, te: Int): CoreState =
    tracer.span("initial", 0, (s: TracingState) => s.edges) {
      new TracingState(inner.initial(ts, te), tracer)
    }
}

final class TracingState(inner: CoreState, tracer: Tracer) extends CoreState {
  private val tel = inner match {
    case s: TELState => s.tel
    case other => sys.error(s"tracing needs a TEL-backed state, got ${other.getClass.getName}")
  }

  def edges: Int = tel.numAliveEdges

  override def truncate(ts: Int, te: Int): Unit =
    tracer.span("truncate", edges, (_: Unit) => edges)(inner.truncate(ts, te))

  override def decompose(k: Int): Unit =
    tracer.span("decompose", edges, (_: Unit) => edges)(inner.decompose(k))

  override def snapshot(): Option[CoreResult] =
    tracer.span("snapshot", edges, (_: Option[CoreResult]) => edges)(inner.snapshot())

  override def copyState(): CoreState =
    tracer.span("copyState", edges, (s: TracingState) => s.edges) {
      new TracingState(inner.copyState(), tracer)
    }
}

/** Per-layer totals of a traced run. */
final case class Breakdown(ms: Map[String, Double], calls: Map[String, Long],
    edgesIn: Map[String, Long], edgesRemoved: Map[String, Long], queries: Int,
    worstUnaccountedNs: Long) {
  /** Driver and schedule time: query spans minus the layer spans they caused. */
  def selfMs: Double = ms.getOrElse("query", 0.0) - Breakdown.Layers.map(ms.getOrElse(_, 0.0)).sum
}

object Breakdown {
  val Layers: Vector[String] = Vector("initial", "copyState", "truncate", "decompose", "snapshot")

  def of(spans: Iterable[Span]): Breakdown = {
    val byName = spans.groupBy(_.name)
    def sum(f: Span => Long): Map[String, Long] = byName.map { case (n, ss) => n -> ss.iterator.map(f).sum }
    // Child spans of one query run one after another inside it, so they can
    // never cover more than the query span; a positive value here would mean
    // spans were attributed to the wrong query.
    val childNs = spans.iterator.filter(_.queryId >= 0).filter(_.name != "query")
      .toVector.groupMapReduce(_.queryId)(_.ns)(_ + _)
    val worst = spans.iterator.filter(_.name == "query")
      .map(q => childNs.getOrElse(q.queryId, 0L) - q.ns).maxOption.getOrElse(0L)
    Breakdown(
      ms = sum(_.ns).map { case (n, v) => n -> v / 1e6 },
      calls = byName.map { case (n, ss) => n -> ss.size.toLong },
      edgesIn = sum(_.edgesBefore.toLong),
      edgesRemoved = sum(s => (s.edgesBefore - s.edgesAfter).toLong),
      queries = byName.get("query").fold(0)(_.size),
      worstUnaccountedNs = worst)
  }
}
