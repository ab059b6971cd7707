"""Rule plugins: importing this package registers every built-in rule.

Each module holds one ``REPNNN`` rule.  Adding a rule is: write the module,
import it here, document it in ``docs/static_analysis.md``.
"""

from repro.analysis.rules import (  # noqa: F401
    rep001_rng,
    rep002_staging,
    rep003_hotpath,
    rep004_wallclock,
    rep005_twins,
    rep006_ledger,
    rep007_index,
    rep008_scenario_rng,
)
