"""Arabic-script to Buckwalter transliteration.

The pipeline and the ontology files operate on Buckwalter ASCII only; any
Arabic-script input is mapped character by character at ingest. The table is
the classic Buckwalter scheme with a few deviations chosen to match how the
corpus was transcribed and to keep surfaces XML-attribute safe:

    hamza-on-alif  -> O   (instead of >)
    hamza-under    -> I   (instead of <)
    hamza-on-waw   -> W   (instead of &)
    teh marbuta    -> h   (instead of p)
    alif maqsura   -> y   (instead of Y)

The mapping is strictly one character to one character, so character offsets
(and therefore token spans) are preserved across transliteration. Characters
outside the table pass through unchanged; ASCII input is a fixed point.
"""

from __future__ import annotations

BUCKWALTER_MAP = {
    "ء": "'",   # hamza
    "آ": "|",   # alif madda
    "أ": "O",   # alif + hamza above
    "ؤ": "W",   # waw + hamza
    "إ": "I",   # alif + hamza below
    "ئ": "}",   # yeh + hamza
    "ا": "A",   # alif
    "ب": "b",
    "ة": "h",   # teh marbuta
    "ت": "t",
    "ث": "v",
    "ج": "j",
    "ح": "H",
    "خ": "x",
    "د": "d",
    "ذ": "*",
    "ر": "r",
    "ز": "z",
    "س": "s",
    "ش": "$",
    "ص": "S",
    "ض": "D",
    "ط": "T",
    "ظ": "Z",
    "ع": "E",
    "غ": "g",
    "ـ": "_",   # tatweel
    "ف": "f",
    "ق": "q",
    "ك": "k",
    "ل": "l",
    "م": "m",
    "ن": "n",
    "ه": "h",
    "و": "w",
    "ى": "y",   # alif maqsura
    "ي": "y",
    "ً": "F",   # fathatan
    "ٌ": "N",   # dammatan
    "ٍ": "K",   # kasratan
    "َ": "a",   # fatha
    "ُ": "u",   # damma
    "ِ": "i",   # kasra
    "ّ": "~",   # shadda
    "ْ": "o",   # sukun
    "ٰ": "`",   # superscript alif
    # extended letters for French borrowings
    "پ": "P",   # peh
    "چ": "J",   # tcheh
    "ڤ": "V",   # veh
    "گ": "G",   # gaf
    # punctuation and digits
    "،": ",",
    "؛": ";",
    "؟": "?",
    "٠": "0", "١": "1", "٢": "2", "٣": "3", "٤": "4",
    "٥": "5", "٦": "6", "٧": "7", "٨": "8", "٩": "9",
    # Extended Arabic-Indic (Persian/Urdu) digits, U+06F0-U+06F9
    "۰": "0", "۱": "1", "۲": "2", "۳": "3", "۴": "4",
    "۵": "5", "۶": "6", "۷": "7", "۸": "8", "۹": "9",
}

_TABLE = str.maketrans(BUCKWALTER_MAP)


def transliterate(text: str) -> str:
    """Map Arabic script to Buckwalter ASCII, leaving other characters alone.
    ASCII text, which the table maps to itself, is returned as it is."""
    return text if text.isascii() else text.translate(_TABLE)
