package perfbench

import java.util.stream.IntStream

/** Answers computed apart from the program, to check its outputs against.
  * Nothing here calls into `repro`.
  */
object Oracle {

  /** Euclidean distance, written out here rather than taken from the
    * program's `Series.euclidean`, so that a fault there cannot hide.
    */
  def dist(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    var acc = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); acc += d * d; i += 1 }
    math.sqrt(acc)
  }

  /** Nearest neighbour of `q` among `data(0 until n)` by a full scan:
    * (id, distance), lowest id on ties.
    */
  def nearest(data: collection.IndexedSeq[Array[Double]], n: Int, q: Array[Double]): (Int, Double) = {
    require(n >= 1 && n <= data.length, s"prefix $n out of range 1..${data.length}")
    var best = Double.PositiveInfinity
    var bestId = -1
    var i = 0
    while (i < n) {
      val d = dist(data(i), q)
      if (d < best) { best = d; bestId = i }
      i += 1
    }
    (bestId, best)
  }

  /** `nearest` for each `(query, prefix)` pair, computed on the common
    * fork-join pool; only used before timing starts.
    */
  def nearestAll(data: collection.IndexedSeq[Array[Double]],
                 asks: IndexedSeq[(Array[Double], Int)]): Array[(Int, Double)] = {
    val out = new Array[(Int, Double)](asks.length)
    IntStream.range(0, asks.length).parallel().forEach { i =>
      val (q, n) = asks(i)
      out(i) = nearest(data, n, q)
    }
    out
  }

  /** Distances agree to within floating-point summation error. */
  def sameDist(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  /** An exact answer is right when its distance is the brute-force one. */
  def exactOk(gotDist: Double, truth: (Int, Double)): Boolean = sameDist(gotDist, truth._2)

  /** An approximate answer is right when its reported distance is the true
    * distance of the id it returned, and no better than the exact answer.
    */
  def approxOk(data: collection.IndexedSeq[Array[Double]], q: Array[Double],
               id: Long, gotDist: Double, truth: (Int, Double)): Boolean =
    id >= 0 && id < data.length && sameDist(gotDist, dist(data(id.toInt), q)) &&
      gotDist >= truth._2 - 1e-9 * math.max(1.0, truth._2)

  /** Keys, read leaf after leaf, that never decrease and number `n`. */
  def sortedLeaves(keys: Iterator[Long], n: Int): Boolean = {
    var count = 0
    var prev = Long.MinValue
    var ok = true
    keys.foreach { k => if (k < prev) ok = false; prev = k; count += 1 }
    ok && count == n
  }

  /** Leaf key ranges `(min, max, count)`, in directory order, that are each
    * well formed, strictly ordered and disjoint, with counts summing to `n`.
    */
  def disjointDirectory(ranges: Seq[(Long, Long, Long)], n: Long): Boolean =
    ranges.forall { case (lo, hi, c) => lo <= hi && c > 0 } &&
      ranges.sliding(2).forall(w => w.length < 2 || w(0)._2 < w(1)._1) &&
      ranges.map(_._3).sum == n

  /** The ids held by an index are exactly 0 until n, each once. */
  def holdsAll(ids: Iterator[Int], n: Int): Boolean = {
    val seen = new java.util.BitSet(n)
    var count = 0
    var ok = true
    ids.foreach { id =>
      if (id < 0 || id >= n || seen.get(id)) ok = false else seen.set(id)
      count += 1
    }
    ok && count == n
  }
}
