"""Bundled reference parameters for 23 journal subject categories.

Each entry records the sample size of a subject's citation counts (2006
articles, counts offset by 1) together with the maximum-likelihood
parameters of both model families fitted to it. The real count data is
not redistributable, so simulation studies and cross-checks run against
models built from these parameters instead; reports stamp that
substitution into their headers.
"""

from __future__ import annotations

from dataclasses import dataclass

from citefit.distributions import DiscretisedLognormal, HookedPowerLaw, family_class


@dataclass(frozen=True)
class SubjectParams:
    """Fitted parameters for one subject category."""

    name: str
    n: int
    ln_mu: float
    ln_sigma: float
    hook_alpha: float
    hook_b: float

    def lognormal(self) -> DiscretisedLognormal:
        return DiscretisedLognormal(self.ln_mu, self.ln_sigma)

    def hooked(self) -> HookedPowerLaw:
        return HookedPowerLaw(self.hook_alpha, self.hook_b)

    def model(self, family: str):
        """The fitted model of ``family``, a key of ``MODELS``."""
        return self.lognormal() if family_class(family) is DiscretisedLognormal else self.hooked()


SUBJECTS: tuple[SubjectParams, ...] = (
    SubjectParams("Cancer Research", 9994, 2.77, 1.40, 3.94, 67.9),
    SubjectParams("Computational Mechanics", 7776, 2.19, 1.17, 4.87, 46.1),
    SubjectParams("Computer Science Applications", 8148, 2.19, 1.40, 3.11, 24.3),
    SubjectParams("Control and Optimization", 1043, 2.08, 1.11, 5.07, 41.9),
    SubjectParams("Critical Care and Intensive Care Medicine", 2625, 1.75, 1.82, 2.06, 7.1),
    SubjectParams("Cultural Studies", 4848, -0.38, 1.73, 2.26, 1.3),
    SubjectParams("Developmental Neuroscience", 1394, 2.83, 1.08, 11.34, 258.1),
    SubjectParams("Economics and Econometrics", 9974, 2.23, 1.39, 3.08, 24.4),
    SubjectParams("Energy Engineering and Power Technology", 7833, 1.33, 1.79, 2.07, 4.7),
    SubjectParams("Filtration and Separation", 3282, 2.18, 1.39, 3.56, 31.5),
    SubjectParams("Food Science", 9992, 2.54, 1.26, 5.76, 89.8),
    SubjectParams("Geochemistry and Petrology", 8292, 2.79, 1.12, 6.55, 126.9),
    SubjectParams("Global and Planetary Change", 834, 3.00, 1.35, 3.50, 67.0),
    SubjectParams("Health social science", 4352, 2.15, 1.50, 3.82, 37.9),
    SubjectParams("Health Information Management", 697, 1.96, 1.37, 3.50, 23.8),
    SubjectParams("Management Science & Operations Research", 3993, 2.45, 1.24, 4.08, 47.6),
    SubjectParams("Marketing", 2260, 2.43, 1.33, 3.52, 37.8),
    SubjectParams("Metals and Alloys", 9964, 1.22, 1.53, 2.38, 5.2),
    SubjectParams("Neuropsychology & Physiological Psychology", 2927, 2.59, 1.39, 4.55, 72.6),
    SubjectParams("Nuclear and High Energy Physics", 9994, 2.34, 1.41, 3.23, 30.8),
    SubjectParams("Pharmaceutical Science", 9228, 1.90, 1.61, 2.95, 19.4),
    SubjectParams("Physical and Theoretical Chemistry", 9986, 2.46, 1.18, 4.77, 59.3),
    SubjectParams("Virology", 6534, 2.81, 1.05, 14.74, 329.5),
)


def get_subject(name: str) -> SubjectParams:
    """Look up a subject by (case-insensitive) name."""
    wanted = name.strip().lower()
    for subject in SUBJECTS:
        if subject.name.lower() == wanted:
            return subject
    names = ", ".join(s.name for s in SUBJECTS)
    raise KeyError(f"unknown subject {name!r}; known subjects: {names}")
