package perfbench

/** Order statistics and batched timing used by every workload. */
object Stats {

  /** Percentile `p` in [0, 100] by linear interpolation between the two
    * closest ranks (the "type 7" estimator). NaN for an empty sample.
    */
  def percentile(xs: collection.Seq[Double], p: Double): Double = {
    require(p >= 0 && p <= 100, s"percentile must be in [0,100], got $p")
    if (xs.isEmpty) return Double.NaN
    val s = xs.toArray.sorted
    val h = (s.length - 1) * p / 100.0
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }

  def median(xs: collection.Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: collection.Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.length

  /** Calls `f` on every item, timing consecutive batches of `batch` items
    * (the last batch may be shorter). Returns one sample per batch, the
    * batch's wall time divided by its size in milliseconds, and the results
    * in item order. Calls too short to time one by one are timed this way.
    */
  def timeBatches[A, R](items: IndexedSeq[A], batch: Int)(f: A => R): (Vector[Double], Vector[R]) = {
    require(batch >= 1, s"batch must be positive, got $batch")
    val samples = Vector.newBuilder[Double]
    val results = Vector.newBuilder[R]
    var i = 0
    while (i < items.length) {
      val end = math.min(items.length, i + batch)
      val t0 = System.nanoTime()
      var j = i
      while (j < end) { results += f(items(j)); j += 1 }
      samples += (System.nanoTime() - t0) / 1e6 / (end - i)
      i = end
    }
    (samples.result(), results.result())
  }

  /** Wall time of `body` in nanoseconds, with its result. */
  def timed[R](body: => R): (Long, R) = {
    val t0 = System.nanoTime()
    val r = body
    (System.nanoTime() - t0, r)
  }
}
