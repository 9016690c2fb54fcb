package repro.perfbench

import repro.core._
import repro.graphgen.{Datasets, GraphSpec, TemporalGraphGen}
import repro.graphgen.TemporalGraphGen.Generated

import scala.util.Random

/** One TCQ instance as the benchmark issues it. */
final case class Query(id: String, engine: CoreEngine, k: Int, window: Interval)

/** Callbacks through which a workload pass issues its operations. */
trait Runner {
  def ask(q: Query): Unit

  /** Appends `edges(from until until)` to `tel`, in order. */
  def append(tel: TEL, edges: Array[TemporalEdge], from: Int, until: Int): Unit
}

final case class SetupTimes(generateMs: Double, buildMs: Double) {
  def totalS: Double = (generateMs + buildMs) / 1e3
}

/** A workload: its inputs, made from the data seed and the order seed, and
  * the operations of one pass over them.
  *
  * @param dataSeed 0 keeps the stand-ins of Table 2/3; any other value
  *                 re-seeds them through `GraphSpec.copy(seed = ...)`
  * @param seed     shuffles the order of edges that share a timestamp and
  *                 the order of queries within a pass; answers do not change
  */
abstract class Workload(val dataSeed: Long, val seed: Long) {
  def name: String

  protected type Inputs

  /** Dataset generation (timed as `graphgen`). */
  protected def generate(): Inputs

  /** Master-TEL build from the inputs (timed as `tel.build`). Replaces the
    * state of earlier builds.
    */
  protected def build(in: Inputs): Unit

  /** The time-sorted edge arrays `build` turns into TELs. */
  protected def edgeArrays(in: Inputs): Seq[Array[TemporalEdge]]

  /** One pass over the workload's operations. */
  def pass(rnd: Random, run: Runner): Unit

  /** Queries one pass issues. */
  def queriesPerPass: Int

  /** Expected answers computed without the OTCD pruning schedule (TCD, the
    * paper's unpruned algorithm). Untimed; used for non-default data and to
    * cross-check `digests.tsv` when it is recorded.
    */
  def reference(): Map[String, Expect]

  /** The TELs the workload holds now. */
  def tels: Seq[TEL]

  final def setup(): SetupTimes = {
    val (in, genMs) = Workload.time(generate())
    val (_, buildMs) = Workload.time(build(in))
    SetupTimes(genMs, buildMs)
  }

  /** The edges of every master TEL, in the order `build` appends them; empty
    * when the workload appends inside its passes.
    */
  final def masterEdges(): Seq[Array[TemporalEdge]] = edgeArrays(generate())

  protected def standIn(spec: GraphSpec): Generated =
    TemporalGraphGen.generate(if (dataSeed == 0) spec else spec.copy(seed = spec.seed + dataSeed))

  /** Edges sorted by time (stable), ties in an order drawn from `seed`,
    * timestamps multiplied by `scale`.
    */
  protected def byTime(g: Generated, scale: Int = 1): Array[TemporalEdge] =
    new Random(seed).shuffle(g.edges).map(e => if (scale == 1) e else e.copy(t = e.t * scale))
      .sortBy(_.t).toArray
}

object Workload {
  val Names: Vector[String] = Vector("selected", "youtube-scan", "sparse-ts", "stream")

  def apply(name: String, dataSeed: Long, seed: Long): Workload = name match {
    case "selected" => new Selected(dataSeed, seed)
    case "youtube-scan" => new YoutubeScan(dataSeed, seed)
    case "sparse-ts" => new SparseTs(dataSeed, seed)
    case "stream" => new Stream(dataSeed, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload $other (one of ${Names.mkString(", ")})")
  }

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Datasets, query-window spans and `k` of Table 3 (as in
    * `Datasets.selectedQueries`).
    */
  val Table3: Vector[(GraphSpec, Int, Int)] = Vector(
    (Datasets.collegeMsg, 120, 2),
    (Datasets.emailEuCore, 100, 3),
    (Datasets.mathOverflow, 100, 2),
    (Datasets.stackOverflow, 100, 2))

  /** Table 3's window rule: five windows of `span` anchored on five
    * consecutive bursts around the median burst start. Recomputed here so
    * re-seeded stand-ins get windows of their own; on the default data it
    * gives `Datasets.selectedQueries` (checked by the self-test).
    */
  def table3Windows(g: Generated, span: Int): Vector[Interval] = {
    val bursts = g.bursts.sortBy(_.window.ts)
    val mid = bursts.size / 2 - 2
    Vector.tabulate(5) { i =>
      val b = bursts(mid + i).window
      val ts = math.max(1, math.min(b.ts - span / 4, g.spec.horizon - span))
      Interval(ts, ts + span)
    }
  }

  def tcd(q: Query): Digest = Digest.of(TCD.run(q.engine, q.k, q.window))

  /** Every query of one untimed pass with its OTCD answer, None where OTCD
    * rejects the query.
    */
  def answers(w: Workload): Vector[(Query, Option[TCQResult])] = {
    val out = Vector.newBuilder[(Query, Option[TCQResult])]
    w.pass(new Random(0), new Runner {
      def ask(q: Query): Unit =
        out += q -> (try Some(OTCD.run(q.engine, q.k, q.window)) catch { case _: IllegalArgumentException => None })
      def append(tel: TEL, edges: Array[TemporalEdge], from: Int, until: Int): Unit =
        (from until until).foreach(i => tel.addEdge(edges(i).u, edges(i).v, edges(i).t))
    })
    out.result()
  }
}

/** The 20 queries of Table 3 on their four datasets. */
final class Selected(dataSeed: Long, seed: Long) extends Workload(dataSeed, seed) {
  val name = "selected"
  protected type Inputs = Vector[(Array[TemporalEdge], Vector[Interval], Int)]
  private var queries = Vector.empty[Query]
  private var masters = Vector.empty[TEL]

  protected def generate(): Inputs = Workload.Table3.map { case (spec, span, k) =>
    val g = standIn(spec)
    (byTime(g), Workload.table3Windows(g, span), k)
  }

  protected def build(in: Inputs): Unit = {
    val engines = in.map { case (es, _, _) => new TELEngine(es) }
    masters = engines.map(_.master)
    queries = in.zip(engines).zipWithIndex.flatMap { case (((_, windows, k), engine), d) =>
      windows.zipWithIndex.map { case (w, i) => Query(s"q${d * 5 + i + 1}", engine, k, w) }
    }
  }

  protected def edgeArrays(in: Inputs): Seq[Array[TemporalEdge]] = in.map(_._1)

  def pass(rnd: Random, run: Runner): Unit = rnd.shuffle(queries).foreach(run.ask)

  def queriesPerPass: Int = queries.size

  def reference(): Map[String, Expect] =
    queries.map(q => q.id -> Expect.Exactly(Workload.tcd(q).key)).toMap

  def tels: Seq[TEL] = masters

  /** For the self-test: (id, window, k) of each query. */
  def specs: Vector[(String, Interval, Int)] = queries.map(q => (q.id, q.window, q.k))
}

/** OTCD with k=10 over the first half of youtube-lite's span: the first half
  * of the Table 6 scan.
  */
final class YoutubeScan(dataSeed: Long, seed: Long) extends Workload(dataSeed, seed) {
  val name = "youtube-scan"
  protected type Inputs = Array[TemporalEdge]
  private var engine: TELEngine = _
  private def query = Query("k10-half-span", engine, 10, Interval(1, Datasets.youtube.horizon / 2))

  protected def generate(): Inputs = byTime(standIn(Datasets.youtube))

  protected def build(in: Inputs): Unit = engine = new TELEngine(in)

  protected def edgeArrays(in: Inputs): Seq[Array[TemporalEdge]] = Seq(in)

  def pass(rnd: Random, run: Runner): Unit = run.ask(query)

  def queriesPerPass: Int = 1

  /** TCD over the whole window snapshots every cell and does not fit in the
    * heap; TCD over three sub-windows checks the part of the answer they hold.
    */
  def reference(): Map[String, Expect] = {
    val w = query.window
    val subs = Vector(Interval(w.ts, w.ts + 15), Interval(w.ts + w.length / 2 - 8, w.ts + w.length / 2 + 7),
      Interval(w.te - 15, w.te))
    Map(query.id -> Expect.OnSubWindows(subs.map(s => s -> Workload.tcd(query.copy(window = s)))))
  }

  def tels: Seq[TEL] = Seq(engine.master)
}

/** Table 4's queries 1, 6, 11 and 16 with every timestamp multiplied by 60,
  * and again by 720 (spans of 72,001 and more).
  */
final class SparseTs(dataSeed: Long, seed: Long) extends Workload(dataSeed, seed) {
  val name = "sparse-ts"
  val Scales: Vector[Int] = Vector(60, 720)
  protected type Inputs = Vector[(Array[TemporalEdge], Interval, Int, Int)]
  private var queries = Vector.empty[Query]
  private var masters = Vector.empty[TEL]

  /** The first Table 3 window of each dataset: queries 1, 6, 11 and 16. */
  private def datasets(): Vector[(Generated, Interval, Int)] = Workload.Table3.map { case (spec, span, k) =>
    val g = standIn(spec)
    (g, Workload.table3Windows(g, span).head, k)
  }

  /** (edges with timestamps times the scale, unscaled window, k, scale). */
  protected def generate(): Inputs = for ((g, w, k) <- datasets(); s <- Scales) yield (byTime(g, s), w, k, s)

  protected def build(in: Inputs): Unit = {
    val engines = in.map(a => new TELEngine(a._1))
    masters = engines.map(_.master)
    queries = in.zip(engines).zipWithIndex.map { case (((_, w, k, s), engine), i) =>
      Query(s"q${(i / Scales.size) * 5 + 1}x$s", engine, k, Interval(w.ts * s, w.te * s))
    }
  }

  protected def edgeArrays(in: Inputs): Seq[Array[TemporalEdge]] = in.map(_._1)

  def pass(rnd: Random, run: Runner): Unit = rnd.shuffle(queries).foreach(run.ask)

  def queriesPerPass: Int = queries.size

  /** The unscaled answer with its TTIs multiplied by the scale. */
  def reference(): Map[String, Expect] = datasets().zipWithIndex.flatMap { case ((g, w, k), d) =>
    val unscaled = Workload.tcd(Query("", new TELEngine(byTime(g)), k, w))
    Scales.map(s => s"q${d * 5 + 1}x$s" -> (Expect.Exactly(unscaled.scaled(s).key): Expect))
  }.toMap

  def tels: Seq[TEL] = masters
}

/** flickr-lite replayed in time order into one live TEL; every 10 time units
  * an OTCD query (k=5) over the trailing 10-unit window of that TEL.
  */
final class Stream(dataSeed: Long, seed: Long) extends Workload(dataSeed, seed) {
  val name = "stream"
  val Step = 10
  val K = 5
  protected type Inputs = Array[TemporalEdge]
  private var edges: Array[TemporalEdge] = _
  private var live: TEL = TEL.empty()

  protected def generate(): Inputs = byTime(standIn(Datasets.flickr))

  /** Nothing to build before the replay: the TEL grows inside the pass. */
  protected def build(in: Inputs): Unit = edges = in

  protected def edgeArrays(in: Inputs): Seq[Array[TemporalEdge]] = Seq.empty

  private def windowEnds: Range = Step to (edges.last.t + Step - 1) / Step * Step by Step

  private def window(end: Int) = Interval(end - Step + 1, end)

  def queriesPerPass: Int = windowEnds.size

  def pass(rnd: Random, run: Runner): Unit = {
    val tel = TEL.empty()
    live = tel
    val engine = new CoreEngine {
      override def initial(ts: Int, te: Int): CoreState = new TELState(tel.copyRange(ts, te))
    }
    var from = 0
    for (end <- windowEnds) {
      var until = from
      while (until < edges.length && edges(until).t <= end) until += 1
      run.append(tel, edges, from, until)
      from = until
      run.ask(Query(s"t$end", engine, K, window(end)))
    }
  }

  /** Every edge of a trailing window is in the TEL by query time, so a
    * static TEL over the whole stream gives the same answer.
    */
  def reference(): Map[String, Expect] = {
    val engine = new TELEngine(edges)
    windowEnds.map(end => s"t$end" -> (Expect.Exactly(Workload.tcd(Query("", engine, K, window(end))).key): Expect)).toMap
  }

  def tels: Seq[TEL] = Seq(live)
}
