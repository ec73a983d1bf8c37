/**
 * @file
 * The paper's evaluation as one table of figures.
 *
 * Each entry regenerates one figure or summary table of the paper. It
 * names the (workload, config) runs it needs as SweepJobs, and a cell
 * function that reads their results by (workload, label) into the rows
 * and columns the paper plots. tools/rowsim_sweep runs any entry
 * through the SweepEngine and the result store and prints its tables;
 * DESIGN.md §4 maps the entries to the paper.
 */

#ifndef ROWSIM_SIM_FIGURES_HH
#define ROWSIM_SIM_FIGURES_HH

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hh"
#include "sim/sweep.hh"

namespace rowsim
{

/** One printed table of a figure; rows and columns keep the order in
 *  which their first cell was set. */
class FigureTable
{
  public:
    explicit FigureTable(std::string title) : title_(std::move(title)) {}

    void cell(const std::string &row, const std::string &col, double value);

    /** `=== title ===`, then one line per row: a `%-15s` label and a
     *  `%12.3f` value per column, `-` for a cell never set. */
    void print(std::FILE *out) const;

  private:
    std::string title_;
    std::vector<std::string> rows_, cols_;
    std::map<std::pair<std::string, std::string>, double> values_;
};

/** The results of a figure's jobs, looked up by (workload, label). */
class FigureResults
{
  public:
    FigureResults(const std::vector<SweepJob> &jobs,
                  const std::vector<RunResult> &results);

    /** The result of (@p workload, @p label); fatal when the figure ran
     *  no such job. */
    const RunResult &at(const std::string &workload,
                        const std::string &label) const;

    /** Cycles of (@p workload, @p label) over those of the workload's
     *  eager run: the normalisation every figure of the paper uses. */
    double normalised(const std::string &workload,
                      const std::string &label) const;

    /** Geometric mean of normalised() over @p workloads. */
    double geomean(const std::vector<std::string> &workloads,
                   const std::string &label) const;

  private:
    std::map<std::pair<std::string, std::string>, const RunResult *>
        byKey_;
};

/** One entry of the figure table. */
struct Figure
{
    /** `fig01` ... `fig13`, `sec4d_single_entry`, `ablation_*`. */
    std::string name;
    /** Every run the tables read, each (workload, label) pair once, at
     *  32 cores, seed 1 and the workload's default quota. Empty for a
     *  figure that runs no full-system experiment (Fig. 2). */
    std::vector<SweepJob> jobs;
    /** Read the results of `jobs` into the figure's tables. */
    std::vector<FigureTable> (*cells)(const FigureResults &);
};

/** Every entry, in paper order. */
const std::vector<Figure> &figures();

/** The entry named @p name; fatal on an unknown name. */
const Figure &findFigure(const std::string &name);

} // namespace rowsim

#endif // ROWSIM_SIM_FIGURES_HH
