package perfbench

import repro.core.CoconutTree
import repro.index.SearchResult
import repro.series.{InvSAX, SaxParams}
import repro.storage.{DiskModel, DiskStats}

/** Inputs of a local-engine workload. */
final case class LocalSpec(kind: String, n: Int, len: Int, w: Int, bits: Int, leafCap: Int,
                           queries: Int, exactQueries: Int, fullExactQueries: Int, approxBatch: Int) {
  require(exactQueries <= queries && fullExactQueries <= queries)
  val p: SaxParams = SaxParams(len, w, bits)
  /** Simulated memory budget: 10% of the raw data. */
  val memBytes: Long = n.toLong * len * 8 / 10
}

/** Calls into the local engine shared by the local workloads, with the
  * checks on what they return.
  */
object Local {

  /** A query whose index failed to build still starts as both searches do,
    * by computing the query's invSAX key, which is where the failure shows.
    */
  def noIndex(q: Array[Double], p: SaxParams): Nothing = {
    InvSAX.ofSeries(q, p)
    throw new IllegalStateException("no index to query: its bulk load failed")
  }

  /** Bulk loads of the primary index per round, for the median in `build_s`;
    * the last one is queried.
    */
  val BuildRepeats = 3

  def bulkLoad(t: Tally, label: String, data: Array[Array[Double]], spec: LocalSpec,
               disk: DiskModel, materialized: Boolean): Option[CoconutTree] = {
    val tree = t.timedAttempt(s"$label.build_ns", s"core.$label.bulkLoad") {
      CoconutTree.bulkLoad(data, spec.p, spec.leafCap, spec.memBytes, disk, materialized)
    }
    tree.foreach { x =>
      t.settleHeap()
      ioSample(t, s"$label.build", disk.snapshot)
      checkLeaves(t, x, data.length)
      t.check("bulk-loaded leaf fill >= 0.97", x.avgLeafFill >= 0.97)
    }
    tree
  }

  def checkLeaves(t: Tally, x: CoconutTree, n: Int): Unit = {
    t.check("leaf keys non-decreasing, sizes sum to N",
            Oracle.sortedLeaves(x.leaves.iterator.flatMap(_.entries.iterator.map(_.inv)), n))
    t.check("index holds every series once",
            Oracle.holdsAll(x.leaves.iterator.flatMap(_.entries.iterator.map(_.id)), n))
  }

  /** Approximate search (radius 1) for every query, timed in batches. */
  def approxAll(t: Tally, label: String, tree: Option[CoconutTree], data: collection.IndexedSeq[Array[Double]],
                queries: Array[Array[Double]], truth: Array[(Int, Double)], spec: LocalSpec): Unit = {
    val before = tree.map(_.disk.snapshot)
    val (ms, res) = Stats.timeBatches(queries.indices, spec.approxBatch) { i =>
      t.trace.span(s"core.$label.approxSearch", i)(t.attempt(tree match {
        case Some(x) => x.approxSearch(queries(i), 1)
        case None    => noIndex(queries(i), spec.p)
      }))
    }
    t.addAll(s"$label.approx_ms", ms)
    for (x <- tree; b <- before) ioSample(t, s"$label.approx", x.disk.snapshot - b, queries.length)
    res.zipWithIndex.foreach { case (r, i) =>
      r.foreach { r =>
        t.check("approximate answer", Oracle.approxOk(data, queries(i), r.id, r.dist, truth(i)))
        t.add(s"$label.approx_records", r.visitedRecords.toDouble)
        if (truth(i)._2 > 0) t.add(s"$label.approx_dist_ratio", r.dist / truth(i)._2)
      }
    }
  }

  /** One exact search, timed on its own. */
  def exactOne(t: Tally, label: String, tree: Option[CoconutTree], q: Array[Double], qid: Int,
               truth: (Int, Double), p: SaxParams): Option[SearchResult] = {
    val before = tree.map(_.disk.snapshot)
    val r = t.timedAttempt(s"$label.exact_ns", s"core.$label.exactSearch", qid) {
      tree match {
        case Some(x) => x.exactSearch(q, 1)
        case None    => noIndex(q, p)
      }
    }
    for (x <- tree; b <- before) ioSample(t, s"$label.exact", x.disk.snapshot - b)
    r.foreach { r =>
      t.check("exact answer equals brute force", Oracle.exactOk(r.dist, truth))
      t.add(s"$label.exact_records", r.visitedRecords.toDouble)
      tree.foreach(x => t.add(s"$label.pruning_ratio", 1.0 - r.visitedRecords.toDouble / x.size))
    }
    r
  }

  /** Modelled I/O of one call (or the mean of `calls` calls). */
  def ioSample(t: Tally, key: String, d: DiskStats, calls: Int = 1): Unit = {
    t.add(s"$key.random_ops", d.randomOps.toDouble / calls)
    t.add(s"$key.seq_blocks", d.seqBlocks.toDouble / calls)
    t.add(s"$key.io_ms", d.elapsedMs / calls)
  }
}

sealed trait LocalWorkload {
  def round(t: Tally): Unit
  /** Series inserted per round after the bulk load. */
  def inserted: Int = 0
}

/** `local-query` and `local-paper-sax`: bulk-load CTree and CTreeFull over
  * the whole dataset, then on each answer every query approximately, and
  * the first `exactQueries` (CTree) or `fullExactQueries` (CTreeFull) exactly.
  */
final class LocalQuery(spec: LocalSpec, val data: Array[Array[Double]], val queries: Array[Array[Double]])
    extends LocalWorkload {
  val truth: Array[(Int, Double)] = Oracle.nearestAll(data, queries.toIndexedSeq.map(q => (q, data.length)))

  def round(t: Tally): Unit = {
    t.settleHeap()
    val t0 = System.nanoTime()
    val c0 = t.ownNs
    val diskFull = new DiskModel()
    var disk = new DiskModel()
    var tree = Local.bulkLoad(t, "CTree", data, spec, disk, materialized = false)
    for (_ <- 2 to Local.BuildRepeats) {
      disk = new DiskModel()
      tree = Local.bulkLoad(t, "CTree", data, spec, disk, materialized = false)
    }
    val full = Local.bulkLoad(t, "CTreeFull", data, spec, diskFull, materialized = true)
    for ((label, x, exact) <- Seq(("CTree", tree, spec.exactQueries), ("CTreeFull", full, spec.fullExactQueries))) {
      Local.approxAll(t, label, x, data, queries, truth, spec)
      (0 until exact).foreach(i => Local.exactOne(t, label, x, queries(i), i, truth(i), spec.p))
    }
    t.add("workload_ns", t.elapsedNs(t0, c0))
    t.add("workload_io_ms", disk.elapsedMs + diskFull.elapsedMs)
  }
}

/** `local-update`: bulk-load the first `initial` series, insert the rest
  * in batches of `batch` through `bulkInsertMerge` with one exact query
  * after every `askEvery`-th batch (the paper's Fig. 10a mix of updates and
  * queries), then answer every query approximately on the final index.
  */
final class LocalUpdate(spec: LocalSpec, initial: Int, batch: Int, askEvery: Int,
                        val data: Array[Array[Double]], val queries: Array[Array[Double]])
    extends LocalWorkload {
  require(initial > 0 && (spec.n - initial) % batch == 0, "inserts must be whole batches")
  private val first = data.take(initial)
  private val batches = data.drop(initial).grouped(batch).toArray
  /** Batches followed by an exact query, and the query asked after each. */
  private val asks = batches.indices.filter(j => (j + 1) % askEvery == 0)
  private def asked(j: Int) = (j / askEvery) % queries.length
  /** Brute-force answer for the query asked after batch j, over the data present then. */
  private val truthAfter = asks.zip(Oracle.nearestAll(data, asks.map(j => (queries(asked(j)), initial + (j + 1) * batch)))).toMap
  private val truthFinal = Oracle.nearestAll(data, queries.toIndexedSeq.map(q => (q, data.length)))

  def round(t: Tally): Unit = {
    t.settleHeap()
    val t0 = System.nanoTime()
    val c0 = t.ownNs
    var disk = new DiskModel()
    var tree = Local.bulkLoad(t, "CTree", first, spec, disk, materialized = false)
    for (_ <- 2 to Local.BuildRepeats) {
      disk = new DiskModel()
      tree = Local.bulkLoad(t, "CTree", first, spec, disk, materialized = false)
    }
    batches.indices.foreach { j =>
      val before = disk.snapshot
      t.timedAttempt("merge_ns", "core.CTree.bulkInsertMerge", j) {
        tree.getOrElse(throw new IllegalStateException("no index to insert into")).bulkInsertMerge(batches(j))
      }
      Local.ioSample(t, "CTree.merge", disk.snapshot - before)
      truthAfter.get(j).foreach(truth => Local.exactOne(t, "CTree", tree, queries(asked(j)), asked(j), truth, spec.p))
    }
    t.settleHeap()
    Local.approxAll(t, "CTree", tree, data, queries, truthFinal, spec)
    t.add("workload_ns", t.elapsedNs(t0, c0))
    t.add("workload_io_ms", disk.elapsedMs)
    tree.foreach { x =>
      Local.checkLeaves(t, x, data.length)
      t.check("index holds every inserted series",
              x.size == data.length && data.indices.forall(i => x.data(i) eq data(i)))
    }
  }

  override def inserted: Int = spec.n - initial
}
