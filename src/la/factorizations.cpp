#include "la/factorizations.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "la/dist.hpp"
#include "la/lapack.hpp"

namespace dacc::la {

namespace {

constexpr std::uint64_t kDouble = sizeof(double);

/// Uploads the host matrix block-cyclically; returns one device matrix
/// (ld = a.m(), owned columns contiguous) per GPU.
std::vector<gpu::DevPtr> distribute(std::span<core::DeviceLink* const> gpus,
                                    const HostMatrix& a,
                                    const BlockCyclic& dist) {
  const int m = a.m();
  std::vector<gpu::DevPtr> d_a(gpus.size());
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    const int cols = dist.local_cols(static_cast<int>(me));
    d_a[me] = gpus[me]->alloc(
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(m) * cols) *
        kDouble);
  }
  for (int b = 0; b < dist.nblocks(); ++b) {
    const int me = dist.owner(b);
    const int cb = dist.block_width(b);
    gpus[static_cast<std::size_t>(me)]->h2d(
        d_a[static_cast<std::size_t>(me)] +
            static_cast<std::uint64_t>(dist.local_col(b)) * m * kDouble,
        a.pack(0, dist.block_col(b), m, cb));
  }
  return d_a;
}

/// Downloads every GPU's columns back into the host matrix.
void collect(std::span<core::DeviceLink* const> gpus,
             const std::vector<gpu::DevPtr>& d_a, HostMatrix& a,
             const BlockCyclic& dist) {
  const int m = a.m();
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    const int cols = dist.local_cols(static_cast<int>(me));
    if (cols == 0) continue;
    util::Buffer local = gpus[me]->d2h(
        d_a[me], static_cast<std::uint64_t>(m) * cols * kDouble);
    for (int b = static_cast<int>(me); b < dist.nblocks();
         b += dist.g) {
      const int cb = dist.block_width(b);
      a.unpack(0, dist.block_col(b), m, cb,
               local.slice(static_cast<std::uint64_t>(dist.local_col(b)) * m *
                               kDouble,
                           static_cast<std::uint64_t>(m) * cb * kDouble));
    }
  }
}

/// Stream barrier on every GPU (a 1-element download).
void fence(std::span<core::DeviceLink* const> gpus,
           const std::vector<gpu::DevPtr>& d_a) {
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    (void)gpus[me]->d2h(d_a[me], kDouble);
  }
}

}  // namespace

FactorResult dgeqrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params,
                           std::vector<double>* tau_out) {
  if (gpus.empty()) throw std::invalid_argument("dgeqrf_hybrid: no GPUs");
  const int m = a.m();
  const int n = a.n();
  const int g = static_cast<int>(gpus.size());
  const int k = std::min(m, n);
  const BlockCyclic dist(n, nb, g);
  const bool functional = a.functional();

  std::vector<gpu::DevPtr> d_a = distribute(gpus, a, dist);
  // Per-GPU scratch: [V (m x nb) | T (nb x nb)] plus a panel-pack area.
  std::vector<gpu::DevPtr> d_vt(gpus.size());
  std::vector<gpu::DevPtr> d_panel(gpus.size());
  const std::uint64_t vt_bytes =
      (static_cast<std::uint64_t>(m) * nb + static_cast<std::uint64_t>(nb) * nb) *
      kDouble;
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    d_vt[me] = gpus[me]->alloc(vt_bytes);
    d_panel[me] = gpus[me]->alloc(static_cast<std::uint64_t>(m) * nb * kDouble);
  }

  std::vector<double> tau(static_cast<std::size_t>(k), 0.0);
  std::vector<double> t_factor(static_cast<std::size_t>(nb) * nb, 0.0);
  std::vector<double> v_dense;

  // Look-ahead bookkeeping: per GPU, a deferred bulk-update launch that must
  // be issued after the next panel has been packed and downloaded.
  struct Deferred {
    bool pending = false;
    gpu::KernelArgs args;
  };
  std::vector<Deferred> deferred(gpus.size());
  auto flush_deferred = [&](std::size_t me) {
    if (!deferred[me].pending) return;
    gpus[me]->launch("la_dlarfb", deferred[me].args);
    deferred[me].pending = false;
  };

  const SimTime t0 = ctx.now();
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    const int rows = m - j;
    const int b = j / nb;
    const auto o = static_cast<std::size_t>(dist.owner(b));
    core::DeviceLink& owner = *gpus[o];

    // 1. Pack + download the panel from its owner. With look-ahead the
    //    owner's stream holds only the (small) next-panel update at this
    //    point, so the download is not stuck behind the bulk update.
    owner.launch("la_pack",
                 {std::int64_t{rows}, std::int64_t{jb},
                  d_a[o] + (static_cast<std::uint64_t>(dist.local_col(b)) * m +
                            std::uint64_t(j)) *
                               kDouble,
                  std::int64_t{m}, d_panel[o]});
    util::Buffer panel =
        owner.d2h(d_panel[o],
                  static_cast<std::uint64_t>(rows) * jb * kDouble);
    // The previous iteration's deferred bulk update now runs while the CPU
    // factors this panel (it still reads the previous V|T, which is only
    // overwritten by an h2d queued after it).
    flush_deferred(o);

    // 2. Factor the panel on the CPU (dgeqr2 + dlarft); build [V | T].
    util::Buffer vt;
    if (functional) {
      double* p = panel.as_mutable<double>().data();
      dgeqr2(rows, jb, p, rows, tau.data() + j);
      dlarft(rows, jb, p, rows, tau.data() + j, t_factor.data(), nb);
      vt = util::Buffer::backed_zero(
          (static_cast<std::uint64_t>(rows) * jb +
           static_cast<std::uint64_t>(jb) * jb) *
          kDouble);
      auto vt_d = vt.as_mutable<double>();
      materialize_v(rows, jb, p, rows, vt_d.data());
      for (int c = 0; c < jb; ++c) {
        std::memcpy(vt_d.data() + static_cast<std::size_t>(rows) * jb +
                        static_cast<std::size_t>(c) * jb,
                    t_factor.data() + static_cast<std::size_t>(c) * nb,
                    static_cast<std::size_t>(jb) * kDouble);
      }
    } else {
      vt = util::Buffer::phantom((static_cast<std::uint64_t>(rows) * jb +
                                  static_cast<std::uint64_t>(jb) * jb) *
                                 kDouble);
    }
    // Panel factorization cost: dgeqr2 (2 m nb^2) + dlarft (~m nb^2).
    const double panel_flops = 3.0 * static_cast<double>(rows) * jb * jb;
    ctx.wait_for(flops_time(panel_flops, params.cpu_panel_gflops));

    // 3. Broadcast [V | T] to every GPU; write the factored panel (R and
    //    reflectors) back to the owner.
    std::vector<std::function<void()>> waiters;
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      waiters.push_back(
          gpus[me]->h2d_async(d_vt[me], vt.view()));
    }
    waiters.push_back(owner.h2d_async(d_panel[o], std::move(panel)));
    owner.launch("la_unpack",
                 {std::int64_t{rows}, std::int64_t{jb}, d_panel[o],
                  d_a[o] + (static_cast<std::uint64_t>(dist.local_col(b)) * m +
                            static_cast<std::uint64_t>(j)) *
                               kDouble,
                  std::int64_t{m}});
    for (auto& wait : waiters) wait();

    // 4. Trailing update on every GPU that owns later columns. With
    //    look-ahead, the GPU owning panel b+1 updates that block eagerly
    //    and defers the rest until after the next panel download.
    const int next_b = b + 1;
    const int next_owner =
        next_b < dist.nblocks() ? dist.owner(next_b) : -1;
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      flush_deferred(me);  // anything still pending must precede new work
      const int ntrail = dist.trailing_cols(static_cast<int>(me), b);
      if (ntrail == 0) continue;
      const int first = dist.next_owned_after(static_cast<int>(me), b);
      const gpu::DevPtr trail_ptr =
          d_a[me] + (static_cast<std::uint64_t>(dist.local_col(first)) * m +
                     static_cast<std::uint64_t>(j)) *
                        kDouble;
      const bool split =
          params.qr_lookahead && static_cast<int>(me) == next_owner &&
          first == next_b && ntrail > dist.block_width(next_b);
      if (!split) {
        gpus[me]->launch(
            "la_dlarfb",
            {std::int64_t{rows}, std::int64_t{ntrail}, std::int64_t{jb},
             d_vt[me],
             d_vt[me] + static_cast<std::uint64_t>(rows) * jb * kDouble,
             trail_ptr, std::int64_t{m}});
        continue;
      }
      const int head = dist.block_width(next_b);
      gpus[me]->launch(
          "la_dlarfb",
          {std::int64_t{rows}, std::int64_t{head}, std::int64_t{jb},
           d_vt[me],
           d_vt[me] + static_cast<std::uint64_t>(rows) * jb * kDouble,
           trail_ptr, std::int64_t{m}});
      deferred[me].pending = true;
      deferred[me].args = {
          std::int64_t{rows}, std::int64_t{ntrail - head}, std::int64_t{jb},
          d_vt[me],
          d_vt[me] + static_cast<std::uint64_t>(rows) * jb * kDouble,
          trail_ptr + static_cast<std::uint64_t>(head) * m * kDouble,
          std::int64_t{m}};
    }
  }
  for (std::size_t me = 0; me < gpus.size(); ++me) flush_deferred(me);
  fence(gpus, d_a);
  const SimDuration factor_time = ctx.now() - t0;

  collect(gpus, d_a, a, dist);
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    gpus[me]->drain();
    gpus[me]->free(d_panel[me]);
    gpus[me]->free(d_vt[me]);
    gpus[me]->free(d_a[me]);
  }
  if (tau_out != nullptr) *tau_out = tau;

  FactorResult result;
  result.factor_time = factor_time;
  result.gflops = qr_flops(m, n) / static_cast<double>(factor_time);
  return result;
}

FactorResult dpotrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params) {
  if (gpus.empty()) throw std::invalid_argument("dpotrf_hybrid: no GPUs");
  if (a.m() != a.n()) throw std::invalid_argument("dpotrf_hybrid: not square");
  const int n = a.n();
  const int g = static_cast<int>(gpus.size());
  const BlockCyclic dist(n, nb, g);
  const bool functional = a.functional();

  std::vector<gpu::DevPtr> d_a = distribute(gpus, a, dist);
  std::vector<gpu::DevPtr> d_diag(gpus.size());
  std::vector<gpu::DevPtr> d_l21(gpus.size());
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    d_diag[me] = gpus[me]->alloc(static_cast<std::uint64_t>(nb) * nb * kDouble);
    d_l21[me] = gpus[me]->alloc(static_cast<std::uint64_t>(n) * nb * kDouble);
  }

  int info = 0;
  const SimTime t0 = ctx.now();
  for (int j = 0; j < n && info == 0; j += nb) {
    const int jb = std::min(nb, n - j);
    const int b = j / nb;
    const auto o = static_cast<std::size_t>(dist.owner(b));
    core::DeviceLink& owner = *gpus[o];
    const std::uint64_t panel_dev =
        d_a[o] + (static_cast<std::uint64_t>(dist.local_col(b)) * n +
                  static_cast<std::uint64_t>(j)) *
                     kDouble;

    // 1. Diagonal block to the CPU, dpotf2, back to the owner.
    owner.launch("la_pack", {std::int64_t{jb}, std::int64_t{jb}, panel_dev,
                             std::int64_t{n}, d_diag[o]});
    util::Buffer diag =
        owner.d2h(d_diag[o], static_cast<std::uint64_t>(jb) * jb * kDouble);
    if (functional) {
      info = dpotf2(jb, diag.as_mutable<double>().data(), jb);
      if (info != 0) {
        info += j;
        break;
      }
    }
    ctx.wait_for(flops_time(static_cast<double>(jb) * jb * jb / 3.0,
                            params.cpu_panel_gflops));
    owner.h2d(d_diag[o], std::move(diag));
    owner.launch("la_unpack", {std::int64_t{jb}, std::int64_t{jb}, d_diag[o],
                               panel_dev, std::int64_t{n}});

    const int rest = n - j - jb;
    if (rest == 0) break;

    // 2. Triangular solve of the sub-diagonal panel on the owner, then pack
    //    L21 and broadcast it.
    owner.launch("la_dtrsm_rlt",
                 {std::int64_t{rest}, std::int64_t{jb}, d_diag[o],
                  panel_dev + static_cast<std::uint64_t>(jb) * kDouble,
                  std::int64_t{n}});
    owner.launch("la_pack",
                 {std::int64_t{rest}, std::int64_t{jb},
                  panel_dev + static_cast<std::uint64_t>(jb) * kDouble,
                  std::int64_t{n}, d_l21[o]});
    util::Buffer l21 =
        owner.d2h(d_l21[o], static_cast<std::uint64_t>(rest) * jb * kDouble);
    std::vector<std::function<void()>> waiters;
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      if (me == o) continue;  // the owner already has it on device
      waiters.push_back(
          gpus[me]->h2d_async(d_l21[me], l21.view()));
    }
    for (auto& wait : waiters) wait();

    // 3. Trailing updates, one launch per GPU over its owned blocks.
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      if (dist.trailing_cols(static_cast<int>(me), b) == 0) continue;
      gpus[me]->launch("la_chol_update",
                       {std::int64_t{n}, std::int64_t{j}, std::int64_t{nb},
                        static_cast<std::int64_t>(me), std::int64_t{g},
                        d_a[me], std::int64_t{n}, d_l21[me]});
    }
  }
  fence(gpus, d_a);
  const SimDuration factor_time = ctx.now() - t0;

  collect(gpus, d_a, a, dist);
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    gpus[me]->drain();
    gpus[me]->free(d_l21[me]);
    gpus[me]->free(d_diag[me]);
    gpus[me]->free(d_a[me]);
  }

  FactorResult result;
  result.factor_time = factor_time;
  result.info = info;
  result.gflops = info == 0 ? cholesky_flops(n) /
                                  static_cast<double>(factor_time)
                            : 0.0;
  return result;
}

FactorResult dgetrf_hybrid(sim::Context& ctx,
                           std::span<core::DeviceLink* const> gpus,
                           HostMatrix& a, int nb, const LaParams& params,
                           std::vector<int>* ipiv_out) {
  if (gpus.empty()) throw std::invalid_argument("dgetrf_hybrid: no GPUs");
  const int m = a.m();
  const int n = a.n();
  const int g = static_cast<int>(gpus.size());
  const int k = std::min(m, n);
  const BlockCyclic dist(n, nb, g);
  const bool functional = a.functional();

  std::vector<gpu::DevPtr> d_a = distribute(gpus, a, dist);
  // Per GPU: packed factored panel (L11 unit lower + L21) and pivot list.
  std::vector<gpu::DevPtr> d_panel(gpus.size());
  std::vector<gpu::DevPtr> d_ipiv(gpus.size());
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    d_panel[me] =
        gpus[me]->alloc(static_cast<std::uint64_t>(m) * nb * kDouble);
    d_ipiv[me] =
        gpus[me]->alloc(static_cast<std::uint64_t>(nb) * sizeof(std::int64_t));
  }

  std::vector<int> ipiv(static_cast<std::size_t>(k), 0);
  int info = 0;
  const SimTime t0 = ctx.now();
  for (int j = 0; j < k; j += nb) {
    const int jb = std::min(nb, k - j);
    const int rows = m - j;
    const int b = j / nb;
    const auto o = static_cast<std::size_t>(dist.owner(b));
    core::DeviceLink& owner = *gpus[o];
    const gpu::DevPtr panel_dev =
        d_a[o] + (static_cast<std::uint64_t>(dist.local_col(b)) * m +
                  static_cast<std::uint64_t>(j)) *
                     kDouble;

    // 1. Panel to the CPU.
    owner.launch("la_pack", {std::int64_t{rows}, std::int64_t{jb}, panel_dev,
                             std::int64_t{m}, d_panel[o]});
    util::Buffer panel =
        owner.d2h(d_panel[o],
                  static_cast<std::uint64_t>(rows) * jb * kDouble);

    // 2. dgetf2 with partial pivoting (absolute row indices).
    if (functional) {
      const int panel_info =
          dgetf2(rows, jb, panel.as_mutable<double>().data(), rows,
                 ipiv.data() + j, j);
      if (panel_info != 0 && info == 0) info = j + panel_info;
    }
    ctx.wait_for(flops_time(
        static_cast<double>(rows) * jb * jb, params.cpu_panel_gflops));

    util::Buffer piv_buf;
    if (functional) {
      std::vector<std::int64_t> piv64(static_cast<std::size_t>(jb));
      for (int i = 0; i < jb; ++i) {
        piv64[static_cast<std::size_t>(i)] =
            ipiv[static_cast<std::size_t>(j + i)];
      }
      piv_buf = util::Buffer::of<std::int64_t>(
          std::span<const std::int64_t>(piv64));
    } else {
      piv_buf = util::Buffer::phantom(static_cast<std::uint64_t>(jb) *
                                      sizeof(std::int64_t));
    }

    // 3. Broadcast the factored panel + pivots; write the panel back into
    //    the owner's matrix.
    std::vector<std::function<void()>> waiters;
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      waiters.push_back(
          gpus[me]->h2d_async(d_panel[me], panel.view()));
      waiters.push_back(
          gpus[me]->h2d_async(d_ipiv[me], piv_buf.view()));
    }
    owner.launch("la_unpack", {std::int64_t{rows}, std::int64_t{jb},
                               d_panel[o], panel_dev, std::int64_t{m}});
    for (auto& wait : waiters) wait();

    // 4. Row interchanges on every GPU's columns outside the panel block.
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      const int ncols = dist.local_cols(static_cast<int>(me));
      if (ncols == 0) continue;
      if (me == o) {
        const int before = dist.local_col(b);
        const int after = ncols - before - jb;
        if (before > 0) {
          gpus[me]->launch("la_laswp",
                           {std::int64_t{before}, d_a[me], std::int64_t{m},
                            std::int64_t{j}, std::int64_t{jb}, d_ipiv[me]});
        }
        if (after > 0) {
          gpus[me]->launch(
              "la_laswp",
              {std::int64_t{after},
               d_a[me] + static_cast<std::uint64_t>(before + jb) * m * kDouble,
               std::int64_t{m}, std::int64_t{j}, std::int64_t{jb},
               d_ipiv[me]});
        }
      } else {
        gpus[me]->launch("la_laswp",
                         {std::int64_t{ncols}, d_a[me], std::int64_t{m},
                          std::int64_t{j}, std::int64_t{jb}, d_ipiv[me]});
      }
    }

    // 5. U12 solve + trailing update on every GPU with later columns.
    for (std::size_t me = 0; me < gpus.size(); ++me) {
      const int ntrail = dist.trailing_cols(static_cast<int>(me), b);
      if (ntrail == 0) continue;
      const int first = dist.next_owned_after(static_cast<int>(me), b);
      const gpu::DevPtr u12 =
          d_a[me] + (static_cast<std::uint64_t>(dist.local_col(first)) * m +
                     static_cast<std::uint64_t>(j)) *
                        kDouble;
      gpus[me]->launch("la_dtrsm_llu",
                       {std::int64_t{jb}, std::int64_t{ntrail}, d_panel[me],
                        std::int64_t{rows}, u12, std::int64_t{m}});
      if (rows - jb > 0) {
        gpus[me]->launch(
            "la_dgemm",
            {std::int64_t{0}, std::int64_t{0}, std::int64_t{rows - jb},
             std::int64_t{ntrail}, std::int64_t{jb}, -1.0,
             d_panel[me] + static_cast<std::uint64_t>(jb) * kDouble,
             std::int64_t{rows}, u12, std::int64_t{m}, 1.0,
             u12 + static_cast<std::uint64_t>(jb) * kDouble,
             std::int64_t{m}});
      }
    }
  }
  fence(gpus, d_a);
  const SimDuration factor_time = ctx.now() - t0;

  collect(gpus, d_a, a, dist);
  for (std::size_t me = 0; me < gpus.size(); ++me) {
    gpus[me]->drain();
    gpus[me]->free(d_ipiv[me]);
    gpus[me]->free(d_panel[me]);
    gpus[me]->free(d_a[me]);
  }
  if (ipiv_out != nullptr) *ipiv_out = ipiv;

  FactorResult result;
  result.factor_time = factor_time;
  result.info = info;
  result.gflops =
      info == 0 ? lu_flops(m, n) / static_cast<double>(factor_time) : 0.0;
  return result;
}

}  // namespace dacc::la
