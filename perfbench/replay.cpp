/// \file replay.cpp
/// The traced run's replay of the RD and NS direct pipelines from public
/// library calls, with a span around each call into a layer. The replay
/// repeats the solvers' arithmetic call for call (src/apps/rd_solver.cpp,
/// src/apps/ns_solver.cpp, fast kernel mode), so its Krylov iteration
/// counts and nodal errors must equal the apps-level run's; the child
/// compares them and reports any difference.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "apps/ns_solver.hpp"
#include "apps/rd_solver.hpp"
#include "bench.hpp"
#include "fem/bdf.hpp"
#include "fem/error_norms.hpp"
#include "platform/platform_spec.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "solvers/preconditioner.hpp"

namespace perfbench {

using namespace hetero;

namespace {

/// Forwards to the library's preconditioner and times every apply() call:
/// the one Krylov-internal layer the library's public interface lets the
/// benchmark wrap without changing it.
class TimedPreconditioner final : public solvers::Preconditioner {
 public:
  explicit TimedPreconditioner(std::unique_ptr<solvers::Preconditioner> inner)
      : inner_(std::move(inner)) {}
  void build(const la::DistCsrMatrix& matrix) override {
    inner_->build(matrix);
  }
  void apply(const la::DistVector& r, la::DistVector& z) const override {
    const double t = now_s();
    inner_->apply(r, z);
    apply_s_ += now_s() - t;
    ++applies_;
  }
  std::string name() const override { return inner_->name(); }

  mutable double apply_s_ = 0.0;
  mutable int applies_ = 0;

 private:
  std::unique_ptr<solvers::Preconditioner> inner_;
};

/// One application's pipeline, split at the layer boundaries the replay
/// times. Every method is collective.
class Pipeline {
 public:
  virtual ~Pipeline() = default;
  virtual void build_mesh(simmpi::Comm& comm) = 0;
  virtual void build_spaces() = 0;
  virtual void build_builder(simmpi::Comm& comm) = 0;
  /// Element sweep and scatter for the step ending at t_new (no finalize).
  virtual void sweep(simmpi::Comm& comm, double t_new) = 0;
  /// The Dirichlet plan, plus the Krylov workspace and solution vector
  /// the solvers' constructors create beside it.
  virtual void build_dirichlet(simmpi::Comm& comm) = 0;
  virtual void interpolate_initial(simmpi::Comm& comm) = 0;
  /// Warm start from the current level, then Dirichlet refresh + apply.
  virtual void apply_bc(simmpi::Comm& comm, double t_new) = 0;
  virtual solvers::SolveReport solve(simmpi::Comm& comm,
                                     const solvers::Preconditioner& m) = 0;
  /// SpMV calls of the last solve. CG multiplies once before its loop and
  /// once per iteration; GMRES pairs every multiply with one apply.
  virtual int spmv_calls(const solvers::SolveReport& report,
                         int applies) const = 0;
  /// Shifts the BDF levels after a solve.
  virtual void advance() = 0;
  virtual double nodal_error(simmpi::Comm& comm, double t) = 0;
  /// Element matrix entries one sweep scatters.
  virtual std::int64_t entries_per_sweep() const = 0;

  std::unique_ptr<la::DistSystemBuilder> builder;
  std::unique_ptr<solvers::KrylovWorkspace> workspace;
  std::optional<la::DistVector> x;
};

bool on_unit_box_boundary(const mesh::Vec3& p) {
  const double eps = 1e-12;
  return p.x < eps || p.x > 1.0 - eps || p.y < eps || p.y > 1.0 - eps ||
         p.z < eps || p.z > 1.0 - eps;
}

class RdPipeline final : public Pipeline {
 public:
  explicit RdPipeline(apps::RdConfig config) : config_(std::move(config)) {
    spec_ = mesh::BoxMeshSpec{config_.global_cells, config_.global_cells,
                              config_.global_cells};
  }

  void build_mesh(simmpi::Comm& comm) override {
    mesh::BlockDecomposition decomposition(spec_, comm.size());
    submesh_ = mesh::build_box_submesh(spec_, decomposition.box(comm.rank()));
  }
  void build_spaces() override {
    space_ = std::make_unique<fem::FeSpace>(submesh_, config_.order,
                                            spec_.vertex_count());
    kernel_ = std::make_unique<fem::ElementKernel>(
        *space_, config_.order == 2 ? 4 : 2);
  }
  void build_builder(simmpi::Comm& comm) override {
    builder = std::make_unique<la::DistSystemBuilder>(comm, space_->dof_gids());
  }

  void sweep(simmpi::Comm& comm, double t_new) override {
    const auto bdf = fem::bdf_scheme(config_.time_order);
    const double mu = 1.0 / (t_new * t_new);
    const double sigma = -2.0 / t_new;
    const double mass_coeff = bdf.alpha / config_.dt + sigma;
    const int n = kernel_->n();
    const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    ae_.resize(nn);
    re_.resize(static_cast<std::size_t>(n));
    gids_.resize(static_cast<std::size_t>(n));
    const fem::SpatialFn source = [](const mesh::Vec3&) { return -6.0; };

    hist_.clear();
    if (u_now_) {
      u_now_->update_ghosts(comm, builder->halo());
      u_prev_->update_ghosts(comm, builder->halo());
      const auto now_vals = fem::space_values(*space_, builder->map(), *u_now_);
      const auto prev_vals =
          fem::space_values(*space_, builder->map(), *u_prev_);
      hist_.resize(now_vals.size());
      for (std::size_t i = 0; i < hist_.size(); ++i) {
        hist_[i] = (bdf.beta[0] * now_vals[i] + bdf.beta[1] * prev_vals[i]) /
                   config_.dt;
      }
    }

    const std::size_t tets = submesh_.tet_count();
    if (!cached_) {
      elem_me_.resize(tets * nn);
      elem_ke_.resize(tets * nn);
      elem_fe_.resize(tets * static_cast<std::size_t>(n));
    }
    builder->begin_assembly();
    for (std::size_t t = 0; t < tets; ++t) {
      std::span<double> me(elem_me_.data() + t * nn, nn);
      std::span<double> ke(elem_ke_.data() + t * nn, nn);
      std::span<double> fe(elem_fe_.data() + t * static_cast<std::size_t>(n),
                           static_cast<std::size_t>(n));
      if (!cached_) {
        kernel_->mass_stiffness_load(t, source, me, ke, fe);
      }
      space_->tet_dof_gids(t, gids_);
      const auto dofs = space_->tet_dofs(t);
      for (int i = 0; i < n; ++i) {
        double rhs_i = fe[static_cast<std::size_t>(i)];
        for (int j = 0; j < n; ++j) {
          const double m_ij = me[static_cast<std::size_t>(i * n + j)];
          ae_[static_cast<std::size_t>(i * n + j)] =
              mass_coeff * m_ij + mu * ke[static_cast<std::size_t>(i * n + j)];
          if (!hist_.empty()) {
            rhs_i += m_ij * hist_[static_cast<std::size_t>(dofs[j])];
          }
        }
        re_[static_cast<std::size_t>(i)] = rhs_i;
      }
      builder->add_dense_block(gids_, gids_, ae_);
      builder->add_rhs_block(gids_, re_);
    }
    cached_ = true;
  }

  void build_dirichlet(simmpi::Comm& comm) override {
    workspace = std::make_unique<solvers::KrylovWorkspace>(builder->map());
    x.emplace(builder->map());
    dirichlet_ = std::make_unique<fem::DirichletPlan>(
        comm, *space_, builder->map(), builder->halo(), on_unit_box_boundary);
  }

  void interpolate_initial(simmpi::Comm& comm) override {
    const double t0 = config_.t0;
    u_prev_.emplace(fem::interpolate(
        comm, *space_, builder->map(), builder->halo(),
        [&](const mesh::Vec3& p) {
          return apps::rd_exact_solution(p, t0 - config_.dt);
        }));
    u_now_.emplace(fem::interpolate(
        comm, *space_, builder->map(), builder->halo(),
        [&](const mesh::Vec3& p) { return apps::rd_exact_solution(p, t0); }));
  }

  void apply_bc(simmpi::Comm& comm, double t_new) override {
    x->copy_from(*u_now_);
    dirichlet_->update(comm, builder->halo(), [&](const mesh::Vec3& p) {
      return apps::rd_exact_solution(p, t_new);
    });
    dirichlet_->apply(builder->matrix(), builder->rhs(), *x);
  }

  solvers::SolveReport solve(simmpi::Comm& comm,
                             const solvers::Preconditioner& m) override {
    solvers::SolverConfig sc;
    sc.rel_tolerance = config_.solver_tolerance;
    sc.max_iterations = config_.max_solver_iterations;
    return solvers::cg_solve(comm, builder->matrix(), m, builder->rhs(), *x,
                             sc, *workspace);
  }
  int spmv_calls(const solvers::SolveReport& report, int) const override {
    return report.iterations + 1;
  }

  void advance() override {
    u_prev_->copy_from(*u_now_);
    u_now_->copy_from(*x);
  }

  double nodal_error(simmpi::Comm& comm, double t) override {
    u_now_->update_ghosts(comm, builder->halo());
    auto exact = [&](const mesh::Vec3& p) {
      return apps::rd_exact_solution(p, t);
    };
    const double nodal =
        fem::nodal_max_error(comm, *space_, builder->map(), *u_now_, exact);
    fem::l2_error(comm, *kernel_, builder->map(), *u_now_, exact);
    return nodal;
  }

  std::int64_t entries_per_sweep() const override {
    return static_cast<std::int64_t>(submesh_.tet_count()) * kernel_->n() *
           kernel_->n();
  }

 private:
  apps::RdConfig config_;
  mesh::BoxMeshSpec spec_;
  mesh::TetMesh submesh_;
  std::unique_ptr<fem::FeSpace> space_;
  std::unique_ptr<fem::ElementKernel> kernel_;
  std::unique_ptr<fem::DirichletPlan> dirichlet_;
  std::optional<la::DistVector> u_now_, u_prev_;
  std::vector<double> ae_, re_, hist_;
  std::vector<la::GlobalId> gids_;
  bool cached_ = false;
  std::vector<double> elem_me_, elem_ke_, elem_fe_;
};

constexpr int kNsComps = 4;  // 0..2 velocity, 3 pressure (ns_solver.cpp)

class NsPipeline final : public Pipeline {
 public:
  explicit NsPipeline(apps::NsConfig config) : config_(std::move(config)) {
    spec_ = mesh::BoxMeshSpec{config_.global_cells, config_.global_cells,
                              config_.global_cells,
                              {-1.0, -1.0, -1.0},
                              {1.0, 1.0, 1.0}};
    nu_ = config_.viscosity / config_.density;
    stab_delta_ = config_.stabilization;
    if (config_.velocity_order == 2 && config_.stabilization == 0.05) {
      stab_delta_ = 0.002;
    }
  }

  void build_mesh(simmpi::Comm& comm) override {
    mesh::BlockDecomposition decomposition(spec_, comm.size());
    submesh_ = mesh::build_box_submesh(spec_, decomposition.box(comm.rank()));
  }
  void build_spaces() override {
    space_v_ = std::make_unique<fem::FeSpace>(
        submesh_, config_.velocity_order, spec_.vertex_count());
    space_p_ =
        std::make_unique<fem::FeSpace>(submesh_, 1, spec_.vertex_count());
    const int quad = config_.velocity_order == 2 ? 4 : 2;
    kernel_v_ = std::make_unique<fem::ElementKernel>(*space_v_, quad);
    kernel_p_ = std::make_unique<fem::ElementKernel>(*space_p_, quad);
    kernel_vp_ = std::make_unique<fem::MixedElementKernel>(*space_v_,
                                                           *space_p_, quad);
    geo_cache_.emplace(submesh_);
  }
  void build_builder(simmpi::Comm& comm) override {
    std::vector<la::GlobalId> touched;
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      for (int c = 0; c < 3; ++c) touched.push_back(vel_gid(d, c));
    }
    for (int d = 0; d < space_p_->local_dof_count(); ++d) {
      touched.push_back(pres_gid(d));
    }
    builder = std::make_unique<la::DistSystemBuilder>(comm, std::move(touched));
  }

  void sweep(simmpi::Comm& comm, double) override {
    const auto bdf = fem::bdf_scheme(2);
    const auto ext = fem::bdf_extrapolation(2);
    const double rho = config_.density;
    const double mu = config_.viscosity;
    const double mass_coeff = rho * bdf.alpha / config_.dt;
    const int nv = kernel_v_->n();
    const int np = kernel_p_->n();
    me_.resize(static_cast<std::size_t>(nv * nv));
    ke_.resize(static_cast<std::size_t>(nv * nv));
    ce_.resize(static_cast<std::size_t>(nv * nv));
    kp_.resize(static_cast<std::size_t>(np * np));
    for (auto& d : de_) d.resize(static_cast<std::size_t>(nv * np));
    vgids_.resize(static_cast<std::size_t>(nv));
    pgids_.resize(static_cast<std::size_t>(np));
    beta_.resize(kernel_v_->quad_count());
    beta_c_.resize(kernel_v_->quad_count());

    const bool have_state = x_now_.has_value();
    if (have_state) {
      x_now_->update_ghosts(comm, builder->halo());
      x_prev_->update_ghosts(comm, builder->halo());
      for (int c = 0; c < 3; ++c) {
        const auto now_vals = velocity_values(*x_now_, c);
        const auto prev_vals = velocity_values(*x_prev_, c);
        ustar_[c].resize(now_vals.size());
        hist_[c].resize(now_vals.size());
        for (std::size_t i = 0; i < now_vals.size(); ++i) {
          ustar_[c][i] = ext[0] * now_vals[i] + ext[1] * prev_vals[i];
          hist_[c][i] = rho *
                        (bdf.beta[0] * now_vals[i] +
                         bdf.beta[1] * prev_vals[i]) /
                        config_.dt;
        }
      }
    }

    builder->begin_assembly();
    for (std::size_t t = 0; t < submesh_.tet_count(); ++t) {
      kernel_v_->mass(t, me_);
      kernel_v_->stiffness(t, ke_);
      kernel_p_->stiffness(t, kp_);
      for (int c = 0; c < 3; ++c) {
        kernel_vp_->grad_row_times_col(t, c, de_[c]);
      }
      if (have_state) {
        for (int c = 0; c < 3; ++c) {
          kernel_v_->eval_at_quad(t, ustar_[c], beta_c_);
          for (std::size_t q = 0; q < beta_.size(); ++q) {
            if (c == 0) beta_[q].x = beta_c_[q];
            if (c == 1) beta_[q].y = beta_c_[q];
            if (c == 2) beta_[q].z = beta_c_[q];
          }
        }
      } else {
        std::fill(beta_.begin(), beta_.end(), mesh::Vec3{});
      }
      kernel_v_->convection(t, beta_, ce_);

      const auto& geo = geo_cache_->get(t);
      const double h2 = std::cbrt(geo.det) * std::cbrt(geo.det);
      const double stab = stab_delta_ * h2 / mu;

      space_v_->tet_dof_gids(t, vgids_);
      for (int j = 0; j < np; ++j) {
        pgids_[static_cast<std::size_t>(j)] = fem::FeSpace::block_gid(
            space_p_->dof_gid(
                space_p_->tet_dofs(t)[static_cast<std::size_t>(j)]),
            3, kNsComps);
      }
      const auto vdofs = space_v_->tet_dofs(t);
      for (int i = 0; i < nv; ++i) {
        const la::GlobalId gi = vgids_[static_cast<std::size_t>(i)];
        for (int c = 0; c < 3; ++c) {
          const la::GlobalId row = fem::FeSpace::block_gid(gi, c, kNsComps);
          double rhs_i = 0.0;
          for (int j = 0; j < nv; ++j) {
            const std::size_t ij = static_cast<std::size_t>(i * nv + j);
            builder->add_matrix(
                row,
                fem::FeSpace::block_gid(vgids_[static_cast<std::size_t>(j)],
                                        c, kNsComps),
                mass_coeff * me_[ij] + mu * ke_[ij] + rho * ce_[ij]);
            if (have_state) {
              rhs_i += me_[ij] * hist_[c][static_cast<std::size_t>(vdofs[j])];
            }
          }
          for (int j = 0; j < np; ++j) {
            builder->add_matrix(
                row, pgids_[static_cast<std::size_t>(j)],
                -de_[c][static_cast<std::size_t>(i * np + j)]);
          }
          builder->add_rhs(row, rhs_i);
        }
      }
      for (int j = 0; j < np; ++j) {
        const la::GlobalId prow = pgids_[static_cast<std::size_t>(j)];
        for (int i = 0; i < nv; ++i) {
          for (int c = 0; c < 3; ++c) {
            builder->add_matrix(
                prow,
                fem::FeSpace::block_gid(vgids_[static_cast<std::size_t>(i)],
                                        c, kNsComps),
                de_[c][static_cast<std::size_t>(i * np + j)]);
          }
        }
        for (int jj = 0; jj < np; ++jj) {
          builder->add_matrix(
              prow, pgids_[static_cast<std::size_t>(jj)],
              stab * kp_[static_cast<std::size_t>(j * np + jj)]);
        }
        builder->add_rhs(prow, 0.0);
      }
    }
  }

  void build_dirichlet(simmpi::Comm& comm) override {
    workspace = std::make_unique<solvers::KrylovWorkspace>(builder->map());
    x.emplace(builder->map());
    const double lo = -1.0 + 1e-12;
    const double hi = 1.0 - 1e-12;
    auto on_boundary = [lo, hi](const mesh::Vec3& p) {
      return p.x < lo || p.x > hi || p.y < lo || p.y > hi || p.z < lo ||
             p.z > hi;
    };
    auto corner = [lo](const mesh::Vec3& p) {
      return p.x < lo && p.y < lo && p.z < lo;
    };
    const la::IndexMap& map = builder->map();
    dirichlet_ = std::make_unique<fem::DirichletPlan>(
        comm, map, builder->halo(),
        [&](const std::function<void(int, const mesh::Vec3&, int)>& add) {
          for (int d = 0; d < space_v_->local_dof_count(); ++d) {
            const mesh::Vec3& p = space_v_->dof_coord(d);
            if (!on_boundary(p)) continue;
            for (int c = 0; c < 3; ++c) {
              const int l = map.local(vel_gid(d, c));
              if (l != la::kInvalidLocal && map.is_owned_local(l)) {
                add(l, p, c);
              }
            }
          }
          for (int d = 0; d < space_p_->local_dof_count(); ++d) {
            const mesh::Vec3& p = space_p_->dof_coord(d);
            if (!corner(p)) continue;
            const int l = map.local(pres_gid(d));
            if (l != la::kInvalidLocal && map.is_owned_local(l)) {
              add(l, p, 3);
            }
          }
        });
  }

  void interpolate_initial(simmpi::Comm& comm) override {
    auto state = [&](double t) {
      la::DistVector v(builder->map());
      for (int d = 0; d < space_v_->local_dof_count(); ++d) {
        for (int c = 0; c < 3; ++c) {
          const int l = builder->map().local(vel_gid(d, c));
          if (l != la::kInvalidLocal) {
            v[l] = apps::es_velocity(space_v_->dof_coord(d), t, nu_, c);
          }
        }
      }
      for (int d = 0; d < space_p_->local_dof_count(); ++d) {
        const int l = builder->map().local(pres_gid(d));
        if (l != la::kInvalidLocal) {
          v[l] = apps::es_pressure(space_p_->dof_coord(d), t, nu_);
        }
      }
      v.update_ghosts(comm, builder->halo());
      return v;
    };
    x_prev_.emplace(state(config_.t0 - config_.dt));
    x_now_.emplace(state(config_.t0));
  }

  void apply_bc(simmpi::Comm& comm, double t_new) override {
    x->copy_from(*x_now_);
    dirichlet_->update_block(
        comm, builder->halo(), [&](const mesh::Vec3& p, int c) {
          return c < 3 ? apps::es_velocity(p, t_new, nu_, c)
                       : apps::es_pressure(p, t_new, nu_);
        });
    dirichlet_->apply(builder->matrix(), builder->rhs(), *x);
  }

  solvers::SolveReport solve(simmpi::Comm& comm,
                             const solvers::Preconditioner& m) override {
    solvers::SolverConfig sc;
    sc.rel_tolerance = config_.solver_tolerance;
    sc.max_iterations = config_.max_solver_iterations;
    sc.restart = config_.gmres_restart;
    return solvers::gmres_solve(comm, builder->matrix(), m, builder->rhs(),
                                *x, sc, *workspace);
  }
  int spmv_calls(const solvers::SolveReport&, int applies) const override {
    return applies;
  }

  void advance() override {
    x_prev_->copy_from(*x_now_);
    x_now_->copy_from(*x);
  }

  double nodal_error(simmpi::Comm& comm, double t) override {
    x_now_->update_ghosts(comm, builder->halo());
    const la::IndexMap& map = builder->map();
    double local = 0.0;
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      for (int c = 0; c < 3; ++c) {
        const int l = map.local(vel_gid(d, c));
        if (l == la::kInvalidLocal || !map.is_owned_local(l)) continue;
        local = std::max(
            local, std::fabs((*x_now_)[l] - apps::es_velocity(
                                                 space_v_->dof_coord(d), t,
                                                 nu_, c)));
      }
    }
    const double nodal = comm.allreduce(local, simmpi::ReduceOp::kMax);
    // The L2 error of the first velocity component, as step() computes it.
    const auto u0 = velocity_values(*x_now_, 0);
    double l2 = 0.0;
    std::vector<double> uh(kernel_v_->quad_count());
    std::vector<mesh::Vec3> xq(kernel_v_->quad_count());
    for (std::size_t e = 0; e < submesh_.tet_count(); ++e) {
      kernel_v_->eval_at_quad(e, u0, uh);
      kernel_v_->quad_points(e, xq);
      const auto& geo = geo_cache_->get(e);
      for (std::size_t q = 0; q < uh.size(); ++q) {
        const double diff = uh[q] - apps::es_velocity(xq[q], t, nu_, 0);
        l2 += kernel_v_->table().points[q].weight * geo.det * diff * diff;
      }
    }
    comm.allreduce(l2, simmpi::ReduceOp::kSum);
    return nodal;
  }

  std::int64_t entries_per_sweep() const override {
    const std::int64_t nv = kernel_v_->n();
    const std::int64_t np = kernel_p_->n();
    return static_cast<std::int64_t>(submesh_.tet_count()) *
           (3 * nv * nv + 6 * nv * np + np * np);
  }

 private:
  la::GlobalId vel_gid(int dof, int comp) const {
    return fem::FeSpace::block_gid(space_v_->dof_gid(dof), comp, kNsComps);
  }
  la::GlobalId pres_gid(int dof) const {
    return fem::FeSpace::block_gid(space_p_->dof_gid(dof), 3, kNsComps);
  }
  std::vector<double> velocity_values(const la::DistVector& v,
                                      int comp) const {
    std::vector<double> out(
        static_cast<std::size_t>(space_v_->local_dof_count()), 0.0);
    for (int d = 0; d < space_v_->local_dof_count(); ++d) {
      out[static_cast<std::size_t>(d)] = v[builder->map().local(vel_gid(d, comp))];
    }
    return out;
  }

  apps::NsConfig config_;
  mesh::BoxMeshSpec spec_;
  mesh::TetMesh submesh_;
  double nu_ = 1.0;
  double stab_delta_ = 0.05;
  std::unique_ptr<fem::FeSpace> space_v_, space_p_;
  std::unique_ptr<fem::ElementKernel> kernel_v_, kernel_p_;
  std::unique_ptr<fem::MixedElementKernel> kernel_vp_;
  std::optional<fem::GeometryCache> geo_cache_;
  std::unique_ptr<fem::DirichletPlan> dirichlet_;
  std::optional<la::DistVector> x_now_, x_prev_;
  std::vector<double> me_, ke_, ce_, kp_;
  std::vector<double> de_[3];
  std::vector<la::GlobalId> vgids_, pgids_;
  std::vector<mesh::Vec3> beta_;
  std::vector<double> beta_c_;
  std::vector<double> ustar_[3], hist_[3];
};

/// Bytes of the rank-local CSR arrays (row pointers, column indices,
/// values).
double csr_bytes(const la::CsrMatrix& a) {
  return 8.0 * static_cast<double>(a.rows() + 1) +
         12.0 * static_cast<double>(a.nonzeros());
}

/// Bytes of the ILU0 factor, computed from the array sizes of the layout
/// solvers/preconditioner.hpp declares: the factor's CSR image of the
/// owned square block, diagonal slots, gather slots, IKJ scratch, and the
/// recorded elimination schedule (one pivot per strictly-lower entry, one
/// update per upper entry of the pivot row present in the row).
double ilu0_bytes(const la::CsrMatrix& a, int owned) {
  const auto row_ptr = a.row_ptr();
  const auto col = a.col_idx();
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(owned));
  std::int64_t nnz = 0;
  for (int i = 0; i < owned; ++i) {
    for (auto s = row_ptr[static_cast<std::size_t>(i)];
         s < row_ptr[static_cast<std::size_t>(i) + 1]; ++s) {
      const int j = col[static_cast<std::size_t>(s)];
      if (j < owned) rows[static_cast<std::size_t>(i)].push_back(j);
    }
    std::sort(rows[static_cast<std::size_t>(i)].begin(),
              rows[static_cast<std::size_t>(i)].end());
    nnz += static_cast<std::int64_t>(rows[static_cast<std::size_t>(i)].size());
  }
  std::vector<int> mark(static_cast<std::size_t>(owned), -1);
  std::int64_t pivots = 0;
  std::int64_t updates = 0;
  for (int i = 0; i < owned; ++i) {
    for (const int j : rows[static_cast<std::size_t>(i)]) {
      mark[static_cast<std::size_t>(j)] = i;
    }
    for (const int k : rows[static_cast<std::size_t>(i)]) {
      if (k >= i) break;
      ++pivots;
      for (const int j : rows[static_cast<std::size_t>(k)]) {
        if (j > k && mark[static_cast<std::size_t>(j)] == i) ++updates;
      }
    }
  }
  const double n = owned;
  return 8.0 * (n + 1) + 12.0 * static_cast<double>(nnz) + 8.0 * n +
         8.0 * static_cast<double>(nnz) + 8.0 * n +
         16.0 * static_cast<double>(pivots) + 8.0 * static_cast<double>(updates);
}

void run_pipeline(simmpi::Comm& comm, Pipeline& pipe, const DirectCase& c,
                  double t0, double dt, SpanRecorder* rec, ReplayRun& out) {
  TimedPreconditioner precond(solvers::make_preconditioner("ilu0"));
  std::optional<ScopedSpan> setup_span(std::in_place, rec, "setup");
  {
    ScopedSpan s(rec, "mesh.build");
    pipe.build_mesh(comm);
  }
  {
    ScopedSpan s(rec, "fem.space");
    pipe.build_spaces();
  }
  {
    ScopedSpan s(rec, "la.ownership");
    pipe.build_builder(comm);
  }
  {
    ScopedSpan s(rec, "fem.first_assembly");
    pipe.sweep(comm, t0 + dt);
  }
  {
    ScopedSpan s(rec, "la.freeze");
    pipe.builder->finalize(comm);
  }
  {
    ScopedSpan s(rec, "fem.dirichlet");
    pipe.build_dirichlet(comm);
  }
  {
    ScopedSpan s(rec, "fem.interpolate");
    pipe.interpolate_initial(comm);
  }
  setup_span.reset();
  la::DistCsrMatrix& a = pipe.builder->matrix();
  la::DistVector probe(pipe.builder->map());
  std::vector<double> spmv_calls, apply_s;
  double time = t0;
  for (int step = 0; step < c.steps; ++step) {
    const double t_new = time + dt;
    StepOutcome outcome;
    solvers::SolveReport report;
    {
      ScopedSpan step_span(rec, "step");
      {
        ScopedSpan s(rec, "simmpi.step_sync");
        comm.barrier();
      }
      {
        ScopedSpan s(rec, "fem.assembly");
        pipe.sweep(comm, t_new);
      }
      {
        ScopedSpan s(rec, "la.refill");
        pipe.builder->finalize(comm);
      }
      {
        ScopedSpan s(rec, "fem.bc");
        pipe.apply_bc(comm, t_new);
      }
      {
        ScopedSpan s(rec, "solvers.precond_build");
        precond.build(a);
      }
      precond.apply_s_ = 0.0;
      precond.applies_ = 0;
      {
        ScopedSpan s(rec, "solvers.krylov");
        report = pipe.solve(comm, precond);
      }
      pipe.advance();
      time = t_new;
      {
        ScopedSpan s(rec, "simmpi.step_sync");
        const double phases[4] = {0.0, 0.0, 0.0, 0.0};
        comm.allreduce(std::span<const double>(phases, 4),
                       simmpi::ReduceOp::kMax);
      }
      {
        ScopedSpan s(rec, "fem.error");
        outcome.nodal_error = pipe.nodal_error(comm, time);
      }
    }
    outcome.iterations = report.iterations;
    outcome.converged = report.converged;
    const int calls = pipe.spmv_calls(report, precond.applies_);
    spmv_calls.push_back(calls);
    apply_s.push_back(precond.apply_s_);
    // The solve's SpMVs and halo exchanges, replayed standalone on the
    // same matrix and vector: the Krylov loop calls them internally, where
    // a span from outside cannot reach.
    {
      ScopedSpan s(rec, "la.spmv_replay");
      for (int i = 0; i < calls; ++i) a.multiply(comm, *pipe.x, probe);
    }
    {
      ScopedSpan s(rec, "la.halo_replay");
      for (int i = 0; i < calls; ++i) {
        pipe.x->update_ghosts(comm, pipe.builder->halo());
      }
    }
    if (rec != nullptr) out.steps.push_back(outcome);
  }

  // Per-call collective latency, timed on rank 0.
  std::vector<double> allreduce_s, barrier_s;
  for (int i = 0; i < 200; ++i) {
    const double t = now_s();
    comm.allreduce(1.0, simmpi::ReduceOp::kSum);
    allreduce_s.push_back(now_s() - t);
  }
  for (int i = 0; i < 200; ++i) {
    const double t = now_s();
    comm.barrier();
    barrier_s.push_back(now_s() - t);
  }

  // This rank's counts, summed over ranks by one reduction.
  const la::CsrMatrix& local = a.local();
  const int owned = pipe.builder->map().owned_count();
  const double counts[6] = {
      static_cast<double>(local.nonzeros()),
      csr_bytes(local),
      ilu0_bytes(local, owned),
      8.0 * static_cast<double>(pipe.builder->halo().import_size()),
      // One SpMV reads the CSR arrays and x (owned + ghosts), writes y.
      csr_bytes(local) + 8.0 * static_cast<double>(probe.local_count()) +
          8.0 * static_cast<double>(owned),
      static_cast<double>(pipe.entries_per_sweep())};
  const auto sum = comm.allreduce(std::span<const double>(counts, 6),
                                  simmpi::ReduceOp::kSum);
  if (rec == nullptr) return;

  // Per-step layers are medians over the steady steps: every step after
  // the first, which also builds the ILU factor and the solver workspace.
  const auto steady = [](std::vector<double> v) {
    if (v.size() > 1) v.erase(v.begin());
    return median(std::move(v));
  };
  const std::vector<int> step_ids = rec->find("step");
  const auto per_step = [&](const char* name) {
    std::vector<double> v;
    for (const int id : step_ids) v.push_back(rec->total(name, id));
    return steady(std::move(v));
  };
  std::vector<double> iters, covered;
  for (std::size_t i = 0; i < out.steps.size(); ++i) {
    const int id = step_ids[i];
    out.steps[i].seconds = rec->spans()[static_cast<std::size_t>(id)].seconds();
    iters.push_back(out.steps[i].iterations);
    covered.push_back(rec->child_seconds(id));
  }
  auto& L = out.layers;
  L["replay.setup_s"] = rec->total("setup");
  L["mesh.build_s"] = rec->total("mesh.build");
  L["fem.space_s"] = rec->total("fem.space");
  L["la.ownership_s"] = rec->total("la.ownership");
  L["fem.dirichlet_s"] = rec->total("fem.dirichlet");
  L["la.freeze_s"] = rec->total("la.freeze");
  L["fem.assembly_s"] = per_step("fem.assembly");
  L["fem.assembly_entries"] = sum[5];
  L["la.refill_s"] = per_step("la.refill");
  L["solvers.precond_build_s"] = per_step("solvers.precond_build");
  L["solvers.precond_apply_s"] = steady(apply_s);
  L["solvers.krylov_s"] = per_step("solvers.krylov");
  L["solvers.iterations"] = steady(iters);
  L["la.spmv_s"] = steady(rec->durations("la.spmv_replay"));
  L["la.spmv_calls"] = steady(spmv_calls);
  L["la.nnz"] = sum[0];
  L["la.spmv_bytes_computed"] = sum[4] * L["la.spmv_calls"];
  L["la.spmv_gbs"] = L["la.spmv_bytes_computed"] / L["la.spmv_s"] / 1e9;
  L["la.matrix_bytes"] = sum[1];
  L["solvers.precond_bytes"] = sum[2];
  L["la.halo_s"] = steady(rec->durations("la.halo_replay"));
  L["la.halo_bytes"] = sum[3];
  L["simmpi.allreduce_s"] = median(allreduce_s);
  L["simmpi.barrier_s"] = median(barrier_s);
  // Coverage numerator: the replayed layer time of one steady step
  // (everything a step span's children cover).
  L["replay.step_covered_s"] = steady(covered);
}

}  // namespace

ReplayRun replay_direct(const DirectCase& c, SpanRecorder& rec) {
  ReplayRun out;
  const platform::PlatformSpec& plat = platform::platform_by_name(c.platform);
  try {
    simmpi::Runtime runtime(plat.topology(c.ranks));
    runtime.run([&](simmpi::Comm& comm) {
      SpanRecorder* mine = comm.rank() == 0 ? &rec : nullptr;
      std::unique_ptr<Pipeline> pipe;
      double start = 0.0;
      double dt = 0.0;
      if (c.app == "rd") {
        apps::RdConfig config;
        config.global_cells = c.global_cells();
        config.cpu = plat.cpu_model();
        start = config.t0;
        dt = config.dt;
        pipe = std::make_unique<RdPipeline>(config);
      } else {
        apps::NsConfig config;
        config.global_cells = c.global_cells();
        config.velocity_order = c.velocity_order;
        config.cpu = plat.cpu_model();
        start = config.t0;
        dt = config.dt;
        pipe = std::make_unique<NsPipeline>(config);
      }
      ScopedSpan run_span(mine, "replay");
      run_pipeline(comm, *pipe, c, start, dt, mine, out);
    });
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
