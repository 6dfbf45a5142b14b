/**
 * @file
 * "sc" stand-in: spreadsheet recalculation. SPEC92 085.sc loads a
 * sheet and recalculates cell formulas; the dominant work is
 * dependency-ordered evaluation of range aggregates. Our sheet
 * mixes constants, SUM() over row ranges, cross-references to the
 * previous row, and a running NPV-style column, re-evaluated to a
 * fixed point each iterate.
 */

#include <cmath>
#include <string>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/spec/spec_app.hh"

namespace scmp::spec
{

namespace
{

class ScApp : public SpecApp
{
  public:
    explicit ScApp(std::uint64_t seed) : _rng(seed) {}

    std::string name() const override { return "sc"; }
    std::uint64_t codeBytes() const override { return 180 * 1024; }

    static constexpr int rows = 64;
    static constexpr int cols = 48;

    enum CellKind : std::uint8_t
    {
        Constant,      //!< literal value
        RowSum,        //!< SUM(row, cols [argA, argB])
        AboveRef,      //!< value above plus a constant
        ColumnNpv,     //!< discounted sum of the column above
    };

    struct SheetCell
    {
        Shared<double> value;
        Shared<double> literal;
        Shared<std::uint8_t> kind;
        Shared<std::uint8_t> argA;
        Shared<std::uint8_t> argB;
        Shared<std::uint8_t> pad;
    };

    void
    setup(Arena &arena) override
    {
        arena.alignTo(4096);
        _sheet = arena.alloc<SheetCell>(rows * cols);
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                SheetCell &cell = at(r, c);
                double dice = _rng.uniform();
                cell.literal.raw() = _rng.uniform(-10.0, 10.0);
                if (r == 0 || dice < 0.55) {
                    cell.kind.raw() = Constant;
                } else if (dice < 0.75) {
                    cell.kind.raw() = RowSum;
                    int a = (int)_rng.range(cols - 1);
                    int b =
                        a + 1 + (int)_rng.range(cols - 1 - a);
                    cell.argA.raw() = (std::uint8_t)a;
                    cell.argB.raw() = (std::uint8_t)b;
                } else if (dice < 0.92) {
                    cell.kind.raw() = AboveRef;
                } else {
                    cell.kind.raw() = ColumnNpv;
                }
                cell.value.raw() = cell.literal.raw();
            }
        }
    }

    void
    iterate(ThreadCtx &ctx) override
    {
        // Edit a few input cells first, as an interactive user
        // would, then recalculate.
        for (int edit = 0; edit < 4; ++edit) {
            int c = (int)_rng.range(cols);
            at(0, c).literal.st(ctx,
                                _rng.uniform(-10.0, 10.0));
            at(0, c).value.st(ctx, at(0, c).literal.ld(ctx));
        }

        // One full recalculation in row order: every formula only
        // reads rows above it, so one pass reaches the fixed
        // point and the sheet is consistent afterwards.
        for (int r = 1; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                SheetCell &cell = at(r, c);
                switch ((CellKind)cell.kind.ld(ctx)) {
                  case Constant:
                    cell.value.st(ctx, cell.literal.ld(ctx));
                    break;
                  case RowSum: {
                    int a = cell.argA.ld(ctx);
                    int b = cell.argB.ld(ctx);
                    double sum = 0;
                    for (int k = a; k <= b; ++k) {
                        sum += at(r - 1, k).value.ld(ctx);
                        ctx.work(2);
                    }
                    cell.value.st(ctx, sum);
                    break;
                  }
                  case AboveRef:
                    cell.value.st(
                        ctx, at(r - 1, c).value.ld(ctx) +
                                 cell.literal.ld(ctx));
                    break;
                  case ColumnNpv: {
                    double npv = 0;
                    double discount = 1.0;
                    int span = std::min(r, 24);
                    for (int k = 1; k <= span; ++k) {
                        discount *= 0.95;
                        npv += discount *
                               at(r - k, c).value.ld(ctx);
                        ctx.work(3);
                    }
                    cell.value.st(ctx, npv);
                    break;
                  }
                }
                ctx.work(6);
            }
        }
        bumpIteration();
    }

    bool
    verify() override
    {
        if (iterations() == 0)
            return true;
        // Recompute a sample of cells host-side.
        Rng pick(99);
        for (int sample = 0; sample < 32; ++sample) {
            int r = 1 + (int)pick.range(rows - 1);
            int c = (int)pick.range(cols);
            const SheetCell &cell = at(r, c);
            double expect = cell.value.raw();
            double actual = expect;
            switch ((CellKind)cell.kind.raw()) {
              case Constant:
                actual = cell.literal.raw();
                break;
              case RowSum: {
                double sum = 0;
                for (int k = cell.argA.raw();
                     k <= cell.argB.raw(); ++k) {
                    sum += at(r - 1, k).value.raw();
                }
                actual = sum;
                break;
              }
              case AboveRef:
                actual = at(r - 1, c).value.raw() +
                         cell.literal.raw();
                break;
              case ColumnNpv: {
                double npv = 0;
                double discount = 1.0;
                int span = std::min(r, 24);
                for (int k = 1; k <= span; ++k) {
                    discount *= 0.95;
                    npv += discount * at(r - k, c).value.raw();
                }
                actual = npv;
                break;
              }
            }
            if (std::abs(actual - expect) >
                1e-9 * (1.0 + std::abs(expect))) {
                return false;
            }
        }
        return true;
    }

  private:
    SheetCell &
    at(int r, int c)
    {
        return _sheet[r * cols + c];
    }

    const SheetCell &
    at(int r, int c) const
    {
        return _sheet[r * cols + c];
    }

    Rng _rng;
    SheetCell *_sheet = nullptr;
};

} // namespace

std::unique_ptr<SpecApp>
makeSc(std::uint64_t seed)
{
    return std::make_unique<ScApp>(seed);
}

} // namespace scmp::spec
