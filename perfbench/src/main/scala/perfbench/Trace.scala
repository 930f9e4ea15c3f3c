package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** Spans recorded by the benchmark around its calls into each layer of the
  * program: name, start, end, the enclosing span and the query they serve.
  * With tracing off, `span` only runs its body. Spans stay in memory and
  * are written out once, when the run ends.
  */
final class Trace(val on: Boolean) {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private val notes = ArrayBuffer.empty[String]
  private var open: List[Int] = Nil

  /** A JSON line written after the spans. */
  def note(json: String): Unit = if (on) notes += json

  def span[A](name: String, query: Int = -1)(body: => A): A =
    if (!on) body
    else {
      val id = spans.length
      spans += null // reserve the id so children that end first keep their parent
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, name, t0, System.nanoTime(), parent, query)
        open = open.tail
      }
    }

  /** Durations in nanoseconds of the closed spans with this name. */
  def durations(name: String): Vector[Double] =
    spans.iterator.filter(s => s != null && s.name == name).map(s => (s.end - s.start).toDouble).toVector

  def count: Int = spans.length

  /** One JSON object per line, times relative to the first span, then the notes. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = spans.headOption.filter(_ != null).map(_.start).getOrElse(0L)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try {
      spans.foreach { s =>
        if (s != null)
          out.println(s"""{"id":${s.id},"name":${Json.str(s.name)},"start_ns":${s.start - t0},""" +
                      s""""end_ns":${s.end - t0},"parent":${s.parent},"query":${s.query}}""")
      }
      notes.foreach(out.println)
    } finally out.close()
  }
}

object Trace {
  final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, query: Int)
}

/** The little JSON the benchmark writes: flat objects of strings and numbers. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"not a finite number: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }
}
