package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import java.security.MessageDigest

import repro.core.{Interval, TCQResult}

import scala.jdk.CollectionConverters._

/** What the checker compares: every core's TTI, |V| and |E|, sorted by TTI.
  * Two answers with equal digests have the same core count, the same TTIs
  * and the same core sizes.
  */
final case class Digest(cores: Vector[Digest.Core]) {
  def count: Int = cores.size

  /** The answer on data whose timestamps were all multiplied by `s`. */
  def scaled(s: Int): Digest = Digest(cores.map(c => c.copy(ts = c.ts * s, te = c.te * s)))

  /** The cores whose TTI lies in `w`: exactly the answer of the same query
    * over the sub-window `w` (every core is induced by its own TTI).
    */
  def within(w: Interval): Digest = Digest(cores.filter(c => c.ts >= w.ts && c.te <= w.te))

  /** `count:sha256` of the canonical text; what `digests.tsv` records. */
  def key: String = {
    val text = cores.map(c => s"${c.ts},${c.te},${c.vertices},${c.edges}").mkString(";")
    val sha = MessageDigest.getInstance("SHA-256").digest(text.getBytes(StandardCharsets.UTF_8))
    s"$count:${sha.map(b => f"$b%02x").mkString}"
  }
}

object Digest {
  final case class Core(ts: Int, te: Int, vertices: Int, edges: Int)

  def of(r: TCQResult): Digest =
    Digest(r.cores.map(c => Core(c.tti.ts, c.tti.te, c.numVertices, c.numEdges))
      .sortBy(c => (c.ts, c.te)))
}

/** An expected answer: either a recorded or computed digest that must match
  * exactly, or (where the full reference is too costly to compute) a set of
  * sub-windows whose references the answer must contain exactly.
  */
sealed trait Expect { def accepts(d: Digest): Boolean }

object Expect {
  final case class Exactly(key: String) extends Expect {
    def accepts(d: Digest): Boolean = d.key == key
  }

  final case class OnSubWindows(refs: Vector[(Interval, Digest)]) extends Expect {
    def accepts(d: Digest): Boolean = refs.forall { case (w, ref) => d.within(w) == ref }
  }
}

/** `digests.tsv`: one line per query of the default data,
  * `workload <tab> query <tab> count:sha256`.
  */
object Recorded {
  def load(file: File, workload: String): Map[String, Expect] =
    Files.readAllLines(file.toPath, StandardCharsets.UTF_8).asScala.iterator
      .filter(l => l.nonEmpty && !l.startsWith("#"))
      .map(_.split('\t'))
      .collect { case Array(`workload`, id, key) => id -> (Expect.Exactly(key): Expect) }
      .toMap

  def write(file: File, rows: Seq[(String, String, String)]): Unit = {
    val lines = "# workload\tquery\tcount:sha256 of the answer digest (default data)" +:
      rows.map { case (w, id, key) => s"$w\t$id\t$key" }
    Files.write(file.toPath, (lines.mkString("\n") + "\n").getBytes(StandardCharsets.UTF_8))
  }
}
