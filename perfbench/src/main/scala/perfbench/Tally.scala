package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Operations attempted and failed, answers found wrong, and timing samples
  * of one run. Every call into the program goes through `attempt`; every
  * answer the benchmark checks goes through `check`, and a wrong answer
  * counts its operation as failed.
  */
final class Tally(val trace: Trace) {
  var attempted = 0L
  var failed = 0L
  /** Exceptions by class and message: the named faults of the program. */
  val faults = mutable.LinkedHashMap.empty[String, Long]
  /** Failed checks by name. */
  val wrong = mutable.LinkedHashMap.empty[String, Long]
  val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]

  def attempt[A](body: => A): Option[A] = {
    attempted += 1
    try Some(body)
    catch {
      case NonFatal(e) =>
        failed += 1
        val key = s"${e.getClass.getName}: ${e.getMessage}"
        faults(key) = faults.getOrElse(key, 0L) + 1
        None
    }
  }

  /** Nanoseconds the benchmark spent checking answers so far, to take out
    * of wall-clock intervals.
    */
  var ownNs = 0L

  private def own[A](body: => A): A = {
    val t0 = System.nanoTime()
    try body finally ownNs += System.nanoTime() - t0
  }

  /** Records a failed check against the operation that produced the answer. */
  def check(name: String, ok: => Boolean): Unit =
    if (!own(ok)) {
      failed += 1
      wrong(name) = wrong.getOrElse(name, 0L) + 1
    }

  /** A full collection. CTree's boxed entries end up in allocation order or
    * in leaf order depending on when a young collection happens to copy
    * them, and exact search runs up to twice as fast in leaf order; a full
    * collection right after each bulk load (and before the approximate
    * searches that follow inserts) gives every round the same layout. Its
    * time counts in the intervals it falls in: it also collects the
    * garbage the program's own calls left behind.
    */
  def settleHeap(): Unit = System.gc()

  /** Wall time since `t0` and `own0` (a reading of `ownNs`), less the benchmark's answer checks. */
  def elapsedNs(t0: Long, own0: Long): Double = (System.nanoTime() - t0 - (ownNs - own0)).toDouble

  def add(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
  def addAll(name: String, vs: Iterable[Double]): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) ++= vs
  def get(name: String): mutable.ArrayBuffer[Double] = samples.getOrElse(name, mutable.ArrayBuffer.empty)

  /** Times one attempt in its own span; the sample is kept under `name`
    * in nanoseconds whether the attempt failed or not.
    */
  def timedAttempt[A](name: String, span: String, query: Int = -1)(body: => A): Option[A] = {
    val (ns, r) = Stats.timed(trace.span(span, query)(attempt(body)))
    add(name, ns.toDouble)
    r
  }
}
