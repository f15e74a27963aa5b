/* The loops of CLUGP's three passes, loaded by repro/core/_kernels.py.
 *
 * stream_cluster is the loop of Algorithm 2 documented in clustering.py,
 * best_responses the sweep of Algorithm 3 documented in game.py, and
 * transform the loop of Algorithm 1 documented in transform.py; each rule
 * below is commented there.  The Python wrappers validate every index
 * before calling in, so the loops do no bounds checks of their own.
 *
 * Counts are int64 and every count stays below 2^53, so converting one to
 * double is exact and each comparison with a double threshold (V_max,
 * i - recency, L_max) decides as Python's int/float comparison does.
 */
#include <stdint.h>

/* Algorithm 2 over edges [start, n_e).  clu/first_pos hold -1/0 for an
 * unseen vertex, deg its count so far; vol has room for cap clusters and
 * split_v/split_c for cap split pairs (v, the cluster v left), since every
 * split opens a cluster.  An edge opens at most four clusters, so the loop
 * stops before edge i when fewer than four slots are left and returns i;
 * the caller grows the tables and calls again from i.  Returns n_e when
 * the stream is done. */
int64_t stream_cluster(int64_t start, int64_t n_e, const int64_t *src,
                       const int64_t *dst, double v_max, double recency,
                       int32_t splitting, int64_t *clu, int64_t *deg,
                       int64_t *first_pos, int64_t *vol, int64_t cap,
                       int64_t *n_clusters, int64_t *split_v,
                       int64_t *split_c, int64_t *n_splits, int64_t *edge_cu,
                       int64_t *edge_cv)
{
    int64_t nc = *n_clusters, ns = *n_splits, i;

    for (i = start; i < n_e; i++) {
        int64_t u = src[i], v = dst[i], c_u, c_v, d_u, d_v;

        if (nc + 4 > cap)
            break;
        /* allocation */
        c_u = clu[u];
        if (c_u < 0) {
            c_u = clu[u] = nc;
            vol[nc++] = 0;
            first_pos[u] = i;
        }
        c_v = clu[v];
        if (c_v < 0) {
            c_v = clu[v] = nc;
            vol[nc++] = 0;
            first_pos[v] = i;
        }
        d_u = ++deg[u];
        d_v = ++deg[v];
        if (u == v)
            d_u = d_v;
        vol[c_u] += 1;
        vol[c_v] += 1;
        /* splitting: u first, so v's check sees the volume u's split left */
        if (splitting) {
            if ((double)vol[c_u] >= v_max && (double)d_u < v_max &&
                (double)first_pos[u] >= (double)i - recency) {
                vol[nc] = d_u;
                vol[c_u] -= d_u;
                split_v[ns] = u;
                split_c[ns++] = c_u;
                c_u = clu[u] = nc++;
                if (u == v)
                    c_v = c_u;
            }
            if ((double)vol[c_v] >= v_max && (double)d_v < v_max &&
                (double)first_pos[v] >= (double)i - recency) {
                vol[nc] = d_v;
                vol[c_v] -= d_v;
                split_v[ns] = v;
                split_c[ns++] = c_v;
                c_v = clu[v] = nc++;
            }
        }
        /* migration: the endpoint in the smaller cluster joins the bigger */
        if (c_u != c_v) {
            int64_t vol_u = vol[c_u], vol_v = vol[c_v];

            if ((double)vol_u < v_max && (double)vol_v < v_max) {
                if (vol_u <= vol_v) {
                    if ((double)(vol_v + d_u) <= v_max) {
                        clu[u] = c_v;
                        vol[c_u] = vol_u - d_u;
                        vol[c_v] = vol_v + d_u;
                        c_u = c_v;
                    }
                } else if ((double)(vol_u + d_v) <= v_max) {
                    clu[v] = c_u;
                    vol[c_v] = vol_v - d_v;
                    vol[c_u] = vol_u + d_v;
                    c_v = c_u;
                }
            }
        }
        edge_cu[i] = c_u;
        edge_cv[i] = c_v;
    }
    *n_clusters = nc;
    *n_splits = ns;
    return i;
}

/* Is p in the sorted row parts[lo, hi)? */
static int holds(const int64_t *parts, int64_t lo, int64_t hi, int64_t p)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;

        if (parts[mid] < p)
            lo = mid + 1;
        else if (parts[mid] > p)
            hi = mid;
        else
            return 1;
    }
    return 0;
}

/* Algorithm 1: the partition of edge i goes to out[i].  a maps a cluster
 * to its partition, edge_cu/edge_cv give each edge's stream-time clusters,
 * and row v of the CSR (m_ptr, m_parts) lists, sorted, the partitions of
 * vertex v's pass-1 mirrors (empty unless v is divided).  loads holds k
 * zeros. */
void transform(int64_t n_e, const int64_t *src, const int64_t *dst,
               const int64_t *edge_cu, const int64_t *edge_cv,
               const int64_t *a, const int64_t *deg, const int64_t *m_ptr,
               const int64_t *m_parts, double l_max, int64_t *loads,
               int64_t *out)
{
    int64_t first_under = 0, i;

    for (i = 0; i < n_e; i++) {
        int64_t u = src[i], v = dst[i];
        int64_t p_u = a[edge_cu[i]], p_v = a[edge_cv[i]], p;
        int u_full = (double)loads[p_u] >= l_max;
        int v_full = (double)loads[p_v] >= l_max;

        if (u_full || v_full) {
            if (!u_full) {
                p = p_u;
            } else if (!v_full) {
                p = p_v;
            } else {
                while ((double)loads[first_under] >= l_max)
                    first_under++;
                p = first_under;
            }
        } else if (p_u == p_v) {
            p = p_u;
        } else if (m_ptr[u] < m_ptr[u + 1] || m_ptr[v] < m_ptr[v + 1]) {
            int m_u = m_ptr[u] < m_ptr[u + 1];
            int m_v = m_ptr[v] < m_ptr[v + 1];

            if (holds(m_parts, m_ptr[u], m_ptr[u + 1], p_v))
                p = p_v;
            else if (holds(m_parts, m_ptr[v], m_ptr[v + 1], p_u))
                p = p_u;
            else if (m_u && m_v)
                p = loads[p_u] <= loads[p_v] ? p_u : p_v;
            else if (m_u)
                p = p_v;
            else
                p = p_u;
        } else {
            p = deg[u] > deg[v] ? p_v : p_u;
        }
        out[i] = p;
        loads[p] += 1;
    }
}

/* The lowest id among the lightest of loads[0, k). */
static int64_t argmin(const double *loads, int64_t k)
{
    int64_t lightest = 0, p;

    for (p = 1; p < k; p++)
        if (loads[p] < loads[lightest])
            lightest = p;
    return lightest;
}

/* Algorithm 3 over clusters order[0, n).  Weights are >= 1, so a partition
 * enters touched once, as its cut turns positive; cut and touched hold k
 * slots, cut zeros on entry and return.  Adds the partitions scored to
 * *scored and returns the moves. */
int64_t best_responses(int64_t n, const int64_t *order, int64_t k, double scale,
                       const int64_t *indptr, const int64_t *cols,
                       const int64_t *ws, const int64_t *sizes,
                       const double *ext, int64_t *a, double *loads,
                       int64_t *cut, int64_t *touched, int64_t *scored)
{
    int64_t lightest = argmin(loads, k), moves = 0, t, j;

    for (t = 0; t < n; t++) {
        int64_t i = order[t], cur = a[i], best = cur, n_touched = 0;
        double size = (double)sizes[i], c = scale * size, cost_cur, best_cost;

        for (j = indptr[i]; j < indptr[i + 1]; j++) {
            int64_t p = a[cols[j]];

            if (cut[p] == 0)
                touched[n_touched++] = p;
            cut[p] += ws[j];
        }
        if (lightest != cur && cut[lightest] == 0)
            touched[n_touched++] = lightest;
        *scored += n_touched + (cut[cur] == 0);
        /* i leaves cur while it chooses; loads are exact integers */
        loads[cur] -= size;
        cost_cur = c * (loads[cur] + size) + 0.5 * (ext[i] - cut[cur]);
        best_cost = cost_cur;
        for (j = 0; j < n_touched; j++) {
            int64_t p = touched[j];
            double cost = c * (loads[p] + size) + 0.5 * (ext[i] - cut[p]);

            if (cost < best_cost || (cost == best_cost &&
                (loads[p] < loads[best] ||
                 (loads[p] == loads[best] && p < best)))) {
                best = p;
                best_cost = cost;
            }
            cut[p] = 0;
        }
        if (best_cost < cost_cur - 1e-12) {
            moves++;
            a[i] = best;
            loads[best] += size;
            if (best == lightest)
                lightest = argmin(loads, k);
            else if (loads[cur] < loads[lightest] ||
                     (loads[cur] == loads[lightest] && cur < lightest))
                lightest = cur;
        } else {
            loads[cur] += size;
        }
    }
    return moves;
}
