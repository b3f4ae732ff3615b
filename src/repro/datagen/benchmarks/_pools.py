"""Shared value pools for the real-world dataset simulators."""

from __future__ import annotations

import numpy as np

FIRST_NAMES = (
    "Jocelyne", "Gerard", "Norm", "Julian", "Therese", "Max", "Julie",
    "Justin", "Stephen", "Paul", "Jean", "Kim", "Brian", "John",
    "Pierre", "Joe", "Lester", "Louis", "William", "Richard", "Arthur",
    "Mackenzie", "Robert", "Wilfrid", "Charles", "Alexander", "Amelia",
    "Sofia", "Liam", "Noah", "Olivia", "Emma", "Ava", "Ethan", "Mason",
    "Logan", "Lucas", "Jack", "Aiden", "Carter", "Grace", "Chloe",
    "Zoe", "Nora", "Hazel", "Violet", "Aurora", "Stella", "Naomi",
    "Caroline", "Athena", "Leo", "Ezra", "Miles", "Silas", "Jasper",
)

MIDDLE_NAMES = (
    "Herbert", "Vicki", "James", "Lee", "Ann", "Marie", "Grant",
    "Elliott", "Ray", "Jo", "Lynn", "Kay", "Dale", "Blake", "Reed",
)

LAST_NAMES = (
    "Thomas", "Little", "Adams", "Lee", "Anderson", "Lauzon", "Kumar",
    "Trudeau", "Harper", "Martin", "Chretien", "Campbell", "Mulroney",
    "Turner", "Clark", "Pearson", "Laurier", "King", "Meighen",
    "Bennett", "Borden", "Thompson", "Abbott", "Macdonald", "Bowell",
    "Tupper", "Nguyen", "Patel", "Garcia", "Kim", "Chen", "Singh",
    "Walker", "Young", "Wright", "Scott", "Torres", "Hill", "Flores",
    "Green", "Baker", "Nelson", "Rivera", "Cooper", "Reed", "Bailey",
)

CITIES = (
    "Edmonton", "Calgary", "Toronto", "Vancouver", "Montreal", "Ottawa",
    "Winnipeg", "Halifax", "Victoria", "Regina", "Saskatoon", "Quebec",
    "Hamilton", "Kitchener", "London", "Windsor", "Kelowna", "Kingston",
    "Moncton", "Fredericton", "Charlottetown", "Whitehorse",
)

PROVINCES = (
    ("Alberta", "AB"), ("British Columbia", "BC"), ("Manitoba", "MB"),
    ("New Brunswick", "NB"), ("Nova Scotia", "NS"), ("Ontario", "ON"),
    ("Quebec", "QC"), ("Saskatchewan", "SK"),
)

STREETS = (
    "Main St", "Oak Ave", "Pine Rd", "Maple Dr", "Cedar Ln", "Elm St",
    "First Ave", "Second St", "Park Rd", "River Dr", "Lake Ave",
    "Hill St", "College Blvd", "Church St", "Mill Rd", "Station Rd",
)

DOMAINS = (
    "example.com", "mail.net", "ualberta.ca", "research.org",
    "datahub.io", "acme.co", "northwind.biz", "openlab.edu",
)

COMPANY_WORDS = (
    "Acme", "Northwind", "Globex", "Initech", "Umbrella", "Stark",
    "Wayne", "Cyberdyne", "Hooli", "Vandelay", "Wonka", "Tyrell",
)

PRODUCT_WORDS = (
    "widget", "gadget", "sprocket", "gizmo", "module", "sensor",
    "adapter", "bracket", "coupler", "flange", "gasket", "rotor",
)

TEAMS = (
    "Oilers", "Flames", "Canucks", "Jets", "Senators", "Leafs",
    "Canadiens", "Bruins", "Rangers", "Kings", "Sharks", "Stars",
)

MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)

MONTH_ABBREVS = tuple(m[:3] for m in MONTH_NAMES)

PAPER_VENUES = ("SIGMOD", "VLDB", "ICDE", "KDD", "WWW", "CIKM", "EDBT")

def pick(rng: np.random.Generator, pool: tuple) -> object:
    """Pick one element of ``pool`` uniformly."""
    return pool[int(rng.integers(0, len(pool)))]


def pick_name(rng: np.random.Generator) -> tuple[str, str, str]:
    """Pick a (first, middle, last) name triple; middle may be empty."""
    first = str(pick(rng, FIRST_NAMES))
    middle = str(pick(rng, MIDDLE_NAMES)) if rng.random() < 0.3 else ""
    last = str(pick(rng, LAST_NAMES))
    return first, middle, last


def random_digits(rng: np.random.Generator, count: int) -> str:
    """A string of ``count`` random digits."""
    return "".join(str(int(d)) for d in rng.integers(0, 10, size=count))
